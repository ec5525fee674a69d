//! Golden-diagnostics snapshot: the full analyzer output (codes +
//! locations + subjects, prose excluded) for every builtin program.
//! Any analyzer or program change shows up here as a reviewable diff —
//! update the snapshot deliberately, never mechanically.

/// One block per corpus program: `# <short name> (<program name>)`
/// followed by one `snapshot_line()` per diagnostic, sorted.
const GOLDEN: &str = "\
# forwarding (forward_v2.p4)
PDA102 info stage[0]:ipv4_lpm ipv4.dst
PDA102 info stage[0]:ipv4_lpm ipv4.ttl

# firewall (firewall_v5.p4)
PDA102 info stage[0]:fw_acl ipv4.dst
PDA102 info stage[0]:fw_acl ipv4.proto
PDA102 info stage[0]:fw_acl ipv4.src
PDA102 info stage[1]:ipv4_lpm ipv4.dst
PDA102 info stage[1]:ipv4_lpm ipv4.ttl

# acl (ACL_v3.p4)
PDA102 info stage[0]:acl_ports udp.dport
PDA102 info stage[1]:ipv4_lpm ipv4.dst
PDA102 info stage[1]:ipv4_lpm ipv4.ttl

# load_balancer (lb_v1.p4)
PDA102 info stage[0]:lb_hash ipv4.dst
PDA102 info stage[0]:lb_hash ipv4.proto
PDA102 info stage[0]:lb_hash ipv4.src
PDA102 info stage[0]:lb_hash udp.dport
PDA102 info stage[0]:lb_hash udp.sport

# scrubber (scrubber_v1.p4)
PDA102 info stage[0]:scrub ipv4.dscp
PDA102 info stage[0]:scrub ipv4.src

# c2_scanner (c2scan_v1.p4)
PDA102 info stage[0]:c2_signatures sig.window
PDA202 info stage[0]:c2_signatures meta.zero

# flow_monitor (monitor_v1.p4)
PDA102 info stage[0]:flow_hash ipv4.dst
PDA102 info stage[0]:flow_hash ipv4.proto
PDA102 info stage[0]:flow_hash ipv4.src

# rogue_flow_monitor (monitor_v1.p4)
PDA102 info stage[0]:flow_hash ipv4.dst
PDA102 info stage[0]:flow_hash ipv4.proto
PDA102 info stage[0]:flow_hash ipv4.src
PDA402 error program flow_counts

# rogue_wiretap (forward_v2.p4)
PDA102 info stage[0]:ipv4_lpm ipv4.dst
PDA102 info stage[0]:ipv4_lpm ipv4.ttl
PDA102 info stage[1]:lawful_intercept ipv4.src
PDA401 error stage[1]:lawful_intercept meta.mirror_to

# rogue_acl_shadow (ACL_v3.p4)
PDA102 info stage[0]:acl_ports udp.dport
PDA102 info stage[1]:ipv4_lpm ipv4.dst
PDA102 info stage[1]:ipv4_lpm ipv4.ttl
PDA502 error stage[0]:acl_ports acl_ports[1]
";

fn render() -> String {
    let mut out = String::new();
    for (name, prog, _) in pda_analyze::corpus::builtins() {
        let report = pda_analyze::analyze_default(&prog);
        out.push_str(&format!("# {name} ({})\n", prog.name));
        for d in &report.diagnostics {
            out.push_str(&d.snapshot_line());
            out.push('\n');
        }
        out.push('\n');
    }
    // Single trailing newline.
    out.truncate(out.trim_end().len());
    out.push('\n');
    out
}

#[test]
fn diagnostics_match_the_golden_snapshot() {
    let actual = render();
    if actual != GOLDEN {
        // A line diff beats one giant assert_eq! dump.
        for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
            if a != g {
                panic!(
                    "snapshot diverges at line {}:\n  golden: {g}\n  actual: {a}",
                    i + 1
                );
            }
        }
        panic!(
            "snapshot length changed ({} vs {} lines):\n{actual}",
            actual.lines().count(),
            GOLDEN.lines().count()
        );
    }
}

/// The acceptance condition, stated directly over the snapshot corpus:
/// every rogue builtin trips an Error-severity taint (PDA4xx) or
/// symbolic-reachability (PDA5xx) diagnostic, every benign builtin
/// emits nothing at Warning or above.
#[test]
fn rogues_error_benigns_below_warning() {
    use pda_analyze::Severity;
    for (name, prog, rogue) in pda_analyze::corpus::builtins() {
        let report = pda_analyze::analyze_default(&prog);
        if rogue {
            assert!(
                report
                    .diagnostics
                    .iter()
                    .any(
                        |d| (d.code.starts_with("PDA4") || d.code.starts_with("PDA5"))
                            && d.severity >= Severity::Error
                    ),
                "{name}: expected an Error-level PDA4xx/PDA5xx diagnostic"
            );
        } else {
            assert!(
                report.clean_at(Severity::Info),
                "{name}: benign program must stay below Warning"
            );
        }
    }
}
