//! `pda` — command-line front end for the attestation stack.
//!
//! ```text
//! pda parse    '<copland request>'            parse + evidence shape
//! pda analyze  '<copland request>' --control us[,ks] --goal exts
//! pda hybrid   '<hybrid policy>'              parse a §5.1 policy
//! pda resolve  '<hybrid policy>' --path 'sw1:ra,key;legacy;sw2:ra,key'
//!              [--param n=1] [--pointwise]    bind abstract places
//! pda wire     '<hybrid policy>' --path … --nonce N
//!              encode the §5.2 options header (hex on stdout)
//! pda decode   <hex>                          decode an options header
//! pda simulate --hops N [--legacy i,j] [--oob] [--packets P]
//!              [--telemetry json|prom|off]
//!              run the linear scenario and appraise
//! pda netkat   '<policy>'                    parse a NetKAT policy
//! pda netkat   equiv '<p>' '<q>' | equiv --check
//!              decide policy equivalence (corpus regression with --check)
//! pda netkat   reach '<step>' --from 'sw=1,pt=0' --goal '<pred>'
//!                                            reachability + witness path
//! pda netkat   slice '<policy>' --switch N
//!              per-switch slice, soundness verified symbolically
//! pda lint     <builtin|all> [--format json] [--check]
//!              run the static analyzer over builtin dataplane programs
//! pda serve    [--port P] [--hops N] [--appraisers N] [--quorum Q]
//!              [--corrupt] [--workers W] [--flight-recorder <path>]
//!              [--slo-target-ns N] [--max-requests N] [--idle-timeout-ms N]
//!              run the long-lived appraisal service (pda-svc)
//! pda client   --addr H:P
//!              <health|metrics|submit|appraise|audit|churn|shutdown>
//!              talk to a running appraisal service
//! pda trace    <dump.jsonl> [--trace <16-hex id>]
//!              render flight-recorder dumps as per-trace span trees
//! ```
//!
//! Each command reads only the flags it takes, in any order among its
//! positional arguments; any other `--flag` is an error.

use pda_core::prelude::*;
use pda_hybrid::wire;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "parse" => cmd_parse(rest),
        "analyze" => cmd_analyze(rest),
        "hybrid" => cmd_hybrid(rest),
        "resolve" => cmd_resolve(rest),
        "wire" => cmd_wire(rest),
        "decode" => cmd_decode(rest),
        "simulate" => cmd_simulate(rest),
        "netkat" => cmd_netkat(rest),
        "lint" => cmd_lint(rest),
        "serve" => cmd_serve(rest),
        "client" => cmd_client(rest),
        "trace" => cmd_trace(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pda parse    '<copland request>'
  pda analyze  '<copland request>' --control <places> --goal <component>
  pda hybrid   '<hybrid policy>'
  pda resolve  '<hybrid policy>' --path '<spec>' [--param k=v]... [--pointwise]
  pda wire     '<hybrid policy>' --path '<spec>' [--param k=v]... [--pointwise]
               [--nonce N] [--oob]
  pda decode   <hex-bytes>
  pda simulate --hops N [--legacy i,j] [--oob] [--packets P]
               [--telemetry json|prom|off]
  pda netkat   '<policy>'
  pda netkat   equiv '<p>' '<q>' | equiv --check
  pda netkat   reach '<step>' --from 'sw=1,pt=0' --goal '<pred>'
  pda netkat   slice '<policy>' --switch N
  pda lint     <builtin|all> [--format json] [--check]
  pda serve    [--port P] [--hops N] [--appraisers N]
               [--quorum majority|unanimous|K-of-N] [--corrupt] [--workers W]
               [--flight-recorder <dump.jsonl>] [--slo-target-ns N]
               [--max-requests N] [--idle-timeout-ms N]
  pda client   --addr H:P health | metrics | shutdown
  pda client   --addr H:P submit [--hops N] [--nonce N] [--packets P] [--rogue]
  pda client   --addr H:P appraise --nonce N [--expect ok|reject]
  pda client   --addr H:P audit [--subject S] [--limit N]
  pda client   --addr H:P churn [--epochs E] [--packets P] [--rogue-every K]
  pda trace    <dump.jsonl> [--trace <16-hex id>]

path spec: semicolon-separated nodes, each `name[:prop,...]` with props
  ra | key | runs=<fn> | test=<name>   (no props = legacy node)";

/// A command's arguments, read against the flags it takes. A `valued`
/// flag takes the argument after it as its value and a `bare` one
/// stands alone; flags and positional arguments mix in any order, so
/// `--control us '<request>'` and `--addr H:P health` find the request
/// and the action. Any other `--flag`, a valued flag with nothing
/// after it, and a repeated flag other than `--param` are errors.
struct Args<'a> {
    positionals: Vec<&'a str>,
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    fn read(args: &'a [String], valued: &[&str], bare: &[&str]) -> Result<Args<'a>, String> {
        let mut read = Args {
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let value = if valued.contains(&arg) {
                Some(args.next().ok_or(format!("{arg} needs a value"))?)
            } else if bare.contains(&arg) {
                None
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}`"));
            } else {
                read.positionals.push(arg);
                continue;
            };
            if arg != "--param" && read.has(arg) {
                return Err(format!("{arg} given twice"));
            }
            read.flags.push((arg, value));
        }
        Ok(read)
    }

    /// The first positional argument, or an error saying `what` is
    /// missing.
    fn first(&self, what: &str) -> Result<&'a str, String> {
        self.positionals
            .first()
            .copied()
            .ok_or(format!("missing {what}"))
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given for `flag`, in order.
    fn values<'s>(&'s self, flag: &'s str) -> impl Iterator<Item = &'a str> + 's {
        self.flags
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| *v)
    }

    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next()
    }

    /// `flag`'s value parsed as a `T`; `None` when the flag is absent.
    fn parse<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`")))
            .transpose()
    }

    /// `flag`'s value parsed as a count of at least one; `default` when
    /// the flag is absent.
    fn count<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        flag: &str,
        default: T,
    ) -> Result<T, String> {
        let n = self.parse(flag)?.unwrap_or(default);
        if n == T::from(0) {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }
}

fn cmd_parse(args: &[String]) -> Result<(), String> {
    let src = Args::read(args, &[], &[])?.first("input")?;
    let req = parse_request(src).map_err(|e| e.to_string())?;
    println!("parsed:   {}", pretty_request(&req));
    println!("rp:       {}", req.rp);
    println!("params:   {:?}", req.params);
    println!(
        "size:     {} nodes, depth {}",
        req.phrase.size(),
        req.phrase.depth()
    );
    println!("evidence: {}", eval_request(&req));
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let args = Args::read(args, &["--control", "--goal"], &[])?;
    let src = args.first("input")?;
    let control = args.value("--control").unwrap_or("us");
    let goal = args.value("--goal").unwrap_or("exts");
    let req = parse_request(src).map_err(|e| e.to_string())?;
    let places: Vec<&str> = control.split(',').collect();
    let analysis = analyze(&req, &AdversaryModel::controlling(&places), goal);
    println!("policy:  {}", pretty_request(&req));
    println!("goal:    keep `{goal}` corrupted, adversary controls {places:?}");
    println!("verdict: {}", analysis.verdict);
    if let Some(s) = &analysis.best_strategy {
        println!(
            "cheapest evasion: {} corruptions ({} recent), {} repairs",
            s.corruptions, s.recent_corruptions, s.repairs
        );
        for a in &s.actions {
            println!("  - {a}");
        }
        println!("  measurement order: {}", s.linearization.join(" → "));
    }
    Ok(())
}

fn cmd_hybrid(args: &[String]) -> Result<(), String> {
    let src = Args::read(args, &[], &[])?.first("input")?;
    let p = parse_hybrid(src).map_err(|e| e.to_string())?;
    println!("rp:         {}", p.rp);
    println!("params:     {:?}", p.params);
    println!("forall:     {:?}", p.quantified);
    println!("clauses:    {}", p.body.clause_count());
    println!("place vars: {:?}", p.body.place_vars());
    Ok(())
}

fn parse_path(spec: &str) -> Result<Vec<NodeInfo>, String> {
    spec.split(';')
        .filter(|s| !s.trim().is_empty())
        .map(|node| {
            let mut parts = node.trim().splitn(2, ':');
            let name = parts.next().unwrap().trim();
            if name.is_empty() {
                return Err(format!("empty node name in `{node}`"));
            }
            let mut info = NodeInfo::legacy(name);
            if let Some(props) = parts.next() {
                for prop in props.split(',') {
                    let prop = prop.trim();
                    match prop {
                        "ra" => info.supports_ra = true,
                        "key" => info.has_key = true,
                        _ if prop.starts_with("runs=") => {
                            info.functions.push(prop["runs=".len()..].to_string())
                        }
                        _ if prop.starts_with("test=") => {
                            info.passing_tests.push(prop["test=".len()..].to_string())
                        }
                        other => return Err(format!("unknown node property `{other}`")),
                    }
                }
            }
            Ok(info)
        })
        .collect()
}

fn do_resolve(args: &Args) -> Result<pda_hybrid::Resolved, String> {
    let policy = parse_hybrid(args.first("input")?).map_err(|e| e.to_string())?;
    let path = parse_path(args.value("--path").unwrap_or(""))?;
    let params = args
        .values("--param")
        .map(|kv| {
            kv.split_once('=')
                .ok_or(format!("bad --param `{kv}` (want k=v)"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let composition = if args.has("--pointwise") {
        Composition::Pointwise
    } else {
        Composition::Chained
    };
    resolve(&policy, &path, &params, composition).map_err(|e| e.to_string())
}

fn cmd_resolve(args: &[String]) -> Result<(), String> {
    let r = do_resolve(&Args::read(args, &["--path", "--param"], &["--pointwise"])?)?;
    println!("request:  {}", pretty_request(&r.request));
    println!("bindings: {:?}", r.bindings);
    println!("skipped:  {:?}", r.skipped);
    println!("directives:");
    for d in &r.directives {
        match &d.guard {
            Some(g) => println!("  @{} [{} |> …]", d.node, g),
            None => println!("  @{} […]", d.node),
        }
    }
    Ok(())
}

fn cmd_wire(args: &[String]) -> Result<(), String> {
    let args = Args::read(
        args,
        &["--path", "--param", "--nonce"],
        &["--pointwise", "--oob"],
    )?;
    let r = do_resolve(&args)?;
    let bytes = wire::encode(&wire::WirePolicy {
        nonce: args.parse("--nonce")?.unwrap_or(1),
        flags: wire::Flags {
            in_band_evidence: !args.has("--oob"),
        },
        directives: r.directives,
    });
    println!("{}", pda_crypto::hex_encode(&bytes));
    eprintln!("({} bytes)", bytes.len());
    Ok(())
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    let hex_in = Args::read(args, &[], &[])?.first("input")?;
    let bytes = pda_crypto::hex_decode(hex_in.trim())
        .ok_or("not hex: want an even number of hex digits")?;
    let p = wire::decode(&bytes).map_err(|e| e.to_string())?;
    println!("nonce:      {:#018x}", p.nonce);
    println!("in-band:    {}", p.flags.in_band_evidence);
    println!("directives: {}", p.directives.len());
    for d in &p.directives {
        let body = pda_copland::pretty_phrase(&d.body);
        match &d.guard {
            Some(g) => println!("  @{} [{} |> {}]", d.node, g, body),
            None => println!("  @{} [{}]", d.node, body),
        }
    }
    Ok(())
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let args = Args::read(
        args,
        &["--hops", "--packets", "--legacy", "--telemetry"],
        &["--oob"],
    )?;
    let hops: usize = args.count("--hops", 3)?;
    let packets: u64 = args.count("--packets", 1)?;
    // Each legacy switch is a distinct index on the path.
    let mut legacy = Vec::new();
    if let Some(list) = args.value("--legacy") {
        let bad = |why: String| format!("bad --legacy `{list}`: {why}");
        for i in list.split(',') {
            let i: usize = i
                .trim()
                .parse()
                .map_err(|_| bad(format!("`{i}` is not a switch index")))?;
            if i >= hops {
                return Err(bad(format!("switch {i} is not below --hops {hops}")));
            }
            if legacy.contains(&i) {
                return Err(bad(format!("switch {i} is listed twice")));
            }
            legacy.push(i);
        }
    }
    let telemetry_mode = args.value("--telemetry").unwrap_or("off");
    if !matches!(telemetry_mode, "off" | "json" | "prom") {
        return Err(format!(
            "unknown --telemetry mode `{telemetry_mode}` (want json | prom | off)"
        ));
    }
    let tel = if telemetry_mode == "off" {
        pda_telemetry::Telemetry::off()
    } else {
        pda_telemetry::Telemetry::collecting()
    };
    let config = PeraConfig::default()
        .with_details(&[DetailLevel::Hardware, DetailLevel::Program])
        .with_sampling(Sampling::PerPacket);
    let mut net = linear_path(hops, &config, &legacy);
    net.sim.attach_telemetry(tel.clone());
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    let appraiser = net.appraiser;
    let oob = args.has("--oob");
    for i in 0..packets {
        let mode = if oob {
            EvidenceMode::OutOfBand { appraiser }
        } else {
            EvidenceMode::InBand
        };
        net.send_attested(Nonce(1 + i), mode, b"payload!");
    }
    println!("stats: {:?}", net.sim.stats);
    let verdict = if oob {
        let recs = net.sim.evidence_at(appraiser);
        appraise_chain(
            &recs[..recs.len().min(hops - legacy.len())],
            &net.sim.registry,
            &golden,
            Nonce(1),
            true,
        )
    } else {
        let chains = net.server_chains();
        appraise_chain(&chains[0].chain, &net.sim.registry, &golden, Nonce(1), true)
    };
    match verdict {
        Ok(()) => println!("appraisal: PASS"),
        Err(fails) => {
            println!("appraisal: FAIL");
            for f in fails {
                println!("  {f}");
            }
        }
    }
    match telemetry_mode {
        "json" => println!("{}", tel.dump_json().encode()),
        "prom" => print!("{}", tel.dump_prometheus()),
        _ => {}
    }
    Ok(())
}

fn cmd_netkat(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("equiv") => cmd_netkat_equiv(&args[1..]),
        Some("reach") => cmd_netkat_reach(&args[1..]),
        Some("slice") => cmd_netkat_slice(&args[1..]),
        _ => cmd_netkat_parse(args),
    }
}

/// Parse-only form: `pda netkat '<policy>'`.
fn cmd_netkat_parse(args: &[String]) -> Result<(), String> {
    let src = Args::read(args, &[], &[])?.first("input")?;
    let p = pda_netkat::parse_policy(src).map_err(|e| e.to_string())?;
    println!("parsed: {p}");
    println!("size:   {} nodes, dup: {}", p.size(), p.has_dup());
    Ok(())
}

fn cmd_netkat_equiv(args: &[String]) -> Result<(), String> {
    let args = Args::read(args, &[], &["--check"])?;
    if args.has("--check") {
        let mut bad = Vec::new();
        for pair in pda_netkat::corpus::policy_pairs() {
            let got = pda_netkat::equivalent(&pair.p, &pair.q);
            let ok = got == pair.equivalent;
            println!(
                "{} {:30} expected {}, got {}",
                if ok { "ok  " } else { "FAIL" },
                pair.name,
                pair.equivalent,
                got
            );
            if !ok {
                bad.push(pair.name);
            }
        }
        if !bad.is_empty() {
            return Err(format!(
                "corpus equivalence check failed: {}",
                bad.join(", ")
            ));
        }
        return Ok(());
    }
    let [p_src, q_src] = args.positionals[..] else {
        return Err("netkat equiv wants two policies (or --check)".into());
    };
    let p = pda_netkat::parse_policy(p_src).map_err(|e| e.to_string())?;
    let q = pda_netkat::parse_policy(q_src).map_err(|e| e.to_string())?;
    match pda_netkat::counterexample_under(&pda_netkat::Pred::True, &p, &q) {
        Ok(None) => println!("equivalent: yes"),
        Ok(Some(cx)) => println!("equivalent: NO — counterexample {cx:?}"),
        Err(pda_netkat::SymError::DupUnsupported) => {
            return Err("equivalence works on the dup-free fragment".into())
        }
        Err(e) => return Err(e.to_string()),
    }
    Ok(())
}

/// Parse a `--from` packet spec: comma-separated `field=value` pairs
/// (unlisted fields are zero), e.g. `sw=1,pt=0,dst=5`.
fn parse_packet_spec(spec: &str) -> Result<pda_netkat::Packet, String> {
    use pda_netkat::Field;
    let mut pkt = pda_netkat::Packet::zero();
    for part in spec.split(',').filter(|s| !s.is_empty()) {
        let (name, val) = part
            .split_once('=')
            .ok_or_else(|| format!("bad packet component `{part}` (want field=value)"))?;
        let field = match name.trim() {
            "sw" | "switch" => Field::Switch,
            "pt" | "port" => Field::Port,
            "src" => Field::Src,
            "dst" => Field::Dst,
            "proto" => Field::Proto,
            "tag" => Field::Tag,
            other => return Err(format!("unknown field `{other}`")),
        };
        let v: u32 = val
            .trim()
            .parse()
            .map_err(|_| format!("bad value `{val}` for field `{name}`"))?;
        pkt = pkt.with(field, v);
    }
    Ok(pkt)
}

fn cmd_netkat_reach(args: &[String]) -> Result<(), String> {
    let args = Args::read(args, &["--from", "--goal"], &[])?;
    let step = pda_netkat::parse_policy(args.first("input")?).map_err(|e| e.to_string())?;
    let from = parse_packet_spec(
        args.value("--from")
            .ok_or("netkat reach wants --from 'sw=..,pt=..'")?,
    )?;
    let goal = pda_netkat::parse_pred(
        args.value("--goal")
            .ok_or("netkat reach wants --goal '<pred>'")?,
    )
    .map_err(|e| e.to_string())?;
    let init = std::collections::BTreeSet::from([from]);
    match pda_netkat::witness_path(&step, &init, &goal) {
        Some(path) => {
            println!("reachable: yes ({} hops)", path.len() - 1);
            println!("switches:  {:?}", pda_netkat::switches_along(&path));
            for (i, pkt) in path.iter().enumerate() {
                println!("  step {i}: {pkt:?}");
            }
        }
        None => println!("reachable: no"),
    }
    Ok(())
}

fn cmd_netkat_slice(args: &[String]) -> Result<(), String> {
    use pda_netkat::{Field, Pred};
    let args = Args::read(args, &["--switch"], &[])?;
    let p = pda_netkat::parse_policy(args.first("input")?).map_err(|e| e.to_string())?;
    let sw: u32 = args
        .parse("--switch")?
        .ok_or("netkat slice wants --switch N")?;
    let slice = pda_netkat::slice_for_switch(&p, sw);
    let guard = Pred::test(Field::Switch, sw);
    let verified = pda_netkat::counterexample_under(&guard, &p, &slice) == Ok(None);
    println!("slice:    {slice}");
    println!("size:     {} nodes (network: {})", slice.size(), p.size());
    println!("verified: {}", if verified { "yes" } else { "NO" });
    println!(
        "dead:     {}",
        if pda_netkat::slice_is_dead(&p, sw) {
            "yes (no packet at this switch survives)"
        } else {
            "no"
        }
    );
    Ok(())
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    use pda_analyze::{analyze_default, corpus, Severity};
    let args = Args::read(args, &["--format"], &["--check"])?;
    let target = args.first("input")?;
    let format = args.value("--format").unwrap_or("human");
    if !matches!(format, "human" | "json") {
        return Err(format!("unknown --format `{format}` (want human | json)"));
    }
    let check = args.has("--check");
    let programs: Vec<(String, pda_dataplane::pipeline::DataplaneProgram, bool)> =
        if target == "all" {
            corpus::builtins()
                .into_iter()
                .map(|(n, p, r)| (n.to_string(), p, r))
                .collect()
        } else {
            let (p, rogue) = corpus::builtin(target).ok_or_else(|| {
                format!(
                    "unknown builtin `{target}` (want one of {} or `all`)",
                    corpus::names().join(", ")
                )
            })?;
            vec![(target.to_string(), p, rogue)]
        };
    let mut json_out = Vec::new();
    let mut check_failures = Vec::new();
    for (name, program, rogue) in &programs {
        let report = analyze_default(program);
        match format {
            "json" => json_out.push(pda_telemetry::json::Json::Obj(vec![
                (
                    "builtin".into(),
                    pda_telemetry::json::Json::Str(name.clone()),
                ),
                ("rogue".into(), pda_telemetry::json::Json::Bool(*rogue)),
                ("report".into(), report.to_json()),
            ])),
            _ => {
                println!("== {name} ({}) ==", report.program);
                println!("program digest: {}", report.program_digest.short());
                println!("lint verdict:   {}", report.verdict_digest().short());
                for d in &report.diagnostics {
                    println!("  {}: {}", d.snapshot_line(), d.message);
                }
                let worst = report
                    .worst()
                    .map(|s| s.name().to_string())
                    .unwrap_or_else(|| "clean".into());
                println!("{} diagnostics, worst: {worst}", report.diagnostics.len());
                println!();
            }
        }
        if check {
            // CI gate: rogues must trip an Error; benigns must emit
            // nothing at Warning or above.
            if *rogue && report.count(Severity::Error) == 0 {
                check_failures.push(format!("{name}: rogue program not flagged at error"));
            }
            if !*rogue && !report.clean_at(Severity::Info) {
                check_failures.push(format!(
                    "{name}: benign program emits diagnostics above info"
                ));
            }
        }
    }
    if format == "json" {
        println!("{}", pda_telemetry::json::Json::Arr(json_out).encode());
    }
    if check_failures.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "lint check failed:\n  {}",
            check_failures.join("\n  ")
        ))
    }
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    use pda_svc::{AppraisalService, Quorum, SvcConfig};
    use std::sync::Arc;

    let args = Args::read(
        args,
        &[
            "--port",
            "--hops",
            "--appraisers",
            "--quorum",
            "--workers",
            "--flight-recorder",
            "--slo-target-ns",
            "--max-requests",
            "--idle-timeout-ms",
        ],
        &["--corrupt"],
    )?;
    let port: u16 = args.parse("--port")?.unwrap_or(7421);
    let hops: usize = args.count("--hops", 3)?;
    let appraisers: usize = args.count("--appraisers", 3)?;
    let quorum_spec = args.value("--quorum").unwrap_or("majority");
    let quorum = Quorum::parse(quorum_spec)
        .ok_or_else(|| format!("bad --quorum `{quorum_spec}` (want majority|unanimous|K-of-N)"))?;
    let workers: usize = args.parse("--workers")?.unwrap_or(4);
    let config = SvcConfig {
        hops,
        appraisers,
        quorum,
        corrupt: args.has("--corrupt"),
        workers,
    };
    let mut options = pda_svc::ServeOptions::default();
    if let Some(n) = args.parse("--max-requests")? {
        options.max_requests = n;
    }
    if let Some(ms) = args.parse("--idle-timeout-ms")? {
        options.idle_timeout = std::time::Duration::from_millis(ms);
    }

    // Optional observability extras: a flight recorder dumping
    // anomalous traces to a JSONL file, and a verdict-latency SLO.
    let flight_path = args.value("--flight-recorder");
    let slo_target: Option<u64> = args.parse("--slo-target-ns")?;
    let (tel, recorder) = match flight_path {
        Some(_) => {
            let rec = Arc::new(pda_telemetry::FlightRecorder::new(256, 256));
            (pda_telemetry::Telemetry::new(rec.clone()), Some(rec))
        }
        None => (pda_telemetry::Telemetry::collecting(), None),
    };
    let mut svc = AppraisalService::new(config.clone(), tel);
    if let (Some(rec), Some(path)) = (recorder, flight_path) {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        rec.set_sink(Box::new(file));
        svc = svc.with_flight_recorder(rec);
        println!("flight recorder: dumping anomalous traces to {path}");
    }
    if let Some(target) = slo_target {
        svc = svc.with_slo(pda_telemetry::SloPolicy::new(
            "svc.verdict.ns",
            target,
            0.99,
        ));
        println!("slo: 99% of verdicts within {target} ns (gauges on /metrics)");
    }
    let svc = Arc::new(svc);
    let mut server = pda_svc::serve_with(
        &format!("127.0.0.1:{port}"),
        workers,
        Arc::clone(&svc),
        options.clone(),
    )
    .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    println!("pda-svc listening on {}", server.addr);
    println!(
        "connections: keep-alive (cap {} requests, idle timeout {:?})",
        options.max_requests, options.idle_timeout
    );
    println!(
        "fleet: {hops} hops; federation: {appraisers} appraisers, quorum {}{}",
        config.quorum,
        if config.corrupt {
            " (last appraiser deliberately corrupted)"
        } else {
            ""
        }
    );
    // Serve until a `shutdown` RPC arrives.
    while !svc.shutdown_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    server.stop();
    println!("pda-svc stopped (shutdown RPC)");
    Ok(())
}

/// Drive a fleet to produce evidence for `packets` consecutive nonces
/// starting at `base`, optionally with `sw1` reloaded rogue.
fn generate_evidence(
    hops: usize,
    base: u64,
    packets: u64,
    rogue: bool,
) -> Vec<pda_pera::EvidenceRecord> {
    let mut fleet = pda_svc::fleet::standard_fleet(hops);
    if rogue {
        pda_svc::rogue_reload(&mut fleet);
    }
    let appraiser = fleet.appraiser;
    for i in 0..packets {
        fleet.send_attested(
            Nonce(base + i),
            EvidenceMode::OutOfBand { appraiser },
            b"pda-client",
        );
    }
    fleet.sim.evidence_at(appraiser).to_vec()
}

fn cmd_client(args: &[String]) -> Result<(), String> {
    use pda_svc::SvcClient;

    // Each action takes its own flags besides `--addr`; the first read
    // takes them all, to find the action among the flags' values.
    let all = [
        "--addr",
        "--nonce",
        "--hops",
        "--packets",
        "--expect",
        "--subject",
        "--limit",
        "--epochs",
        "--rogue-every",
    ];
    let action = Args::read(args, &all, &["--rogue"])?.first("action")?;
    let (valued, bare): (&[&str], &[&str]) = match action {
        "health" | "metrics" | "shutdown" => (&["--addr"], &[]),
        "submit" => (&["--addr", "--nonce", "--hops", "--packets"], &["--rogue"]),
        "appraise" => (&["--addr", "--nonce", "--expect"], &[]),
        "audit" => (&["--addr", "--subject", "--limit"], &[]),
        "churn" => (&["--addr", "--epochs", "--packets", "--rogue-every"], &[]),
        other => {
            return Err(format!(
                "unknown client action `{other}` (want health|metrics|submit|appraise|audit|churn|shutdown)"
            ))
        }
    };
    let args = Args::read(args, valued, bare)?;
    let addr: std::net::SocketAddr = args.parse("--addr")?.ok_or("--addr H:P is required")?;
    let client = SvcClient::new(addr);
    let nonce: u64 = args.parse("--nonce")?.unwrap_or(1);
    match action {
        "health" => println!("{}", client.health()?.encode()),
        "metrics" => println!("{}", client.metrics()?.encode()),
        "shutdown" => println!("{}", client.shutdown()?.encode()),
        "submit" => {
            let hops: usize = args.count("--hops", 3)?;
            let packets: u64 = args.count("--packets", 1)?;
            let records = generate_evidence(hops, nonce, packets, args.has("--rogue"));
            if records.is_empty() {
                return Err("fleet produced no evidence".into());
            }
            println!("{}", client.submit_evidence(&records)?.encode());
        }
        "appraise" => {
            let verdict = client.appraise(nonce)?;
            println!("{}", verdict.encode());
            if let Some(expect) = args.value("--expect") {
                let ok = verdict
                    .get("ok")
                    .and_then(pda_telemetry::json::Json::as_bool)
                    .unwrap_or(false);
                let matches = match expect {
                    "ok" => ok,
                    "reject" => !ok,
                    other => return Err(format!("bad --expect `{other}` (want ok|reject)")),
                };
                if !matches {
                    return Err(format!("verdict ok={ok}, expected {expect}"));
                }
            }
        }
        "audit" => {
            let limit = args.parse("--limit")?;
            println!(
                "{}",
                client
                    .query_audit_log(args.value("--subject"), limit)?
                    .encode()
            );
        }
        "churn" => {
            let cfg = pda_svc::ChurnConfig {
                epochs: args.parse("--epochs")?.unwrap_or(5),
                packets_per_epoch: args.parse("--packets")?.unwrap_or(10),
                rogue_every: args.parse("--rogue-every")?.unwrap_or(4),
                ..pda_svc::ChurnConfig::default()
            };
            let report = pda_svc::run_churn(&client, &cfg, &pda_telemetry::Telemetry::off())?;
            println!("{report:#?}");
            println!("client connection reuses: {}", client.reused_connections());
        }
        _ => unreachable!("the flag table above names every action"),
    }
    Ok(())
}

/// Render a flight-recorder JSONL dump as per-trace span trees.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let args = Args::read(args, &["--trace"], &[])?;
    let path = args.first("input")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let filter = args
        .value("--trace")
        .map(|s| {
            pda_telemetry::TraceId::from_hex(s)
                .ok_or_else(|| format!("bad --trace `{s}` (want 16 hex chars)"))
        })
        .transpose()?;
    print!("{}", pda_telemetry::render_trace_trees(&text, filter)?);
    Ok(())
}
