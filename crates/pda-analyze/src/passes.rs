//! The six analysis passes. Each takes the program plus shared
//! [`ParserFacts`] and pushes [`Diagnostic`]s.
//!
//! Code plan (stable — appraisers and golden snapshots depend on it):
//!
//! | code   | severity | pass | finding |
//! |--------|----------|------|---------|
//! | PDA001 | warning  | parser | state unreachable from `start` |
//! | PDA002 | error    | parser | no accept path from `start` |
//! | PDA003 | error    | parser | select cycle reachable from `start` (runtime `ParseErr::Looping`) |
//! | PDA004 | error    | parser | reference to an undefined state (runtime `ParseErr::UnknownState`) |
//! | PDA101 | error    | headers | field not declared by its header |
//! | PDA102 | info     | headers | header not extracted on every parser path (silent zero default) |
//! | PDA201 | warning  | def-use | scratch field read but never defined (always zero) |
//! | PDA202 | info     | def-use | metadata field read relying on the zero default |
//! | PDA211 | error    | def-use | access to an undeclared register array |
//! | PDA212 | warning  | def-use | register index can exceed the array bound (silent no-op/zero) |
//! | PDA213 | warning  | def-use | register array touched from multiple stages (hardware race) |
//! | PDA301 | warning  | totality | a hit/miss path decides neither Forward nor Drop (egress defaults to 0) |
//! | PDA302 | error    | totality | Forward to a port outside the configured port set |
//! | PDA303 | info     | totality | inert table (no entries, no-op default) |
//! | PDA401 | error    | taint | flow-identifying data reaches a mirror/clone sink (second egress) |
//! | PDA402 | error    | taint | declared register array never written (severed observation path) |
//! | PDA501 | warning  | symbolic | table entry fully shadowed by higher-precedence entries (can never fire) |
//! | PDA502 | error    | symbolic | dead **Drop** entry — an advertised block that can never fire |
//! | PDA503 | info     | symbolic | default action unreachable (entries cover the whole key space) |

use crate::diag::{Diagnostic, Location, Severity};
use crate::ir::{
    action_decides, action_reads, action_reg_accesses, action_writes, parser_facts, prefix,
    table_actions, ParserFacts,
};
use crate::AnalyzeConfig;
use pda_dataplane::phv::meta;
use pda_dataplane::tables::KeyCell;
use pda_dataplane::{DataplaneProgram, Primitive};
use pda_netkat::sym::{Arena, Sp};
use std::collections::{BTreeMap, BTreeSet};

fn stage_loc(program: &DataplaneProgram, index: usize) -> Location {
    Location::Stage {
        index,
        table: program.stages[index].table.name.clone(),
    }
}

/// Pass 1 — parser state-machine checks (PDA001–PDA004).
pub fn parser_pass(program: &DataplaneProgram, facts: &ParserFacts, out: &mut Vec<Diagnostic>) {
    for (from, target) in &facts.unknown_refs {
        let (loc, subject) = if from.is_empty() {
            (Location::Program, target.clone())
        } else {
            (Location::Parser(from.clone()), target.clone())
        };
        out.push(Diagnostic {
            code: "PDA004",
            severity: Severity::Error,
            location: loc,
            subject,
            message: format!(
                "select target `{target}` is not a defined parser state; \
                 any packet taking this edge dies with ParseErr::UnknownState"
            ),
        });
    }
    for state in &program.parser.states {
        if !facts.reachable.contains(&state.name) {
            out.push(Diagnostic {
                code: "PDA001",
                severity: Severity::Warning,
                location: Location::Parser(state.name.clone()),
                subject: state.name.clone(),
                message: format!(
                    "parser state `{}` is unreachable from start state `{}`",
                    state.name, program.parser.start
                ),
            });
        }
    }
    if !facts.has_accept_path && facts.unknown_refs.is_empty() {
        out.push(Diagnostic {
            code: "PDA002",
            severity: Severity::Error,
            location: Location::Parser(program.parser.start.clone()),
            subject: program.parser.start.clone(),
            message: "no path from the start state reaches an accept; \
                      every packet is rejected by the parser"
                .into(),
        });
    }
    if let Some(state) = &facts.cycle_state {
        out.push(Diagnostic {
            code: "PDA003",
            severity: Severity::Error,
            location: Location::Parser(state.clone()),
            subject: state.clone(),
            message: format!(
                "select cycle through `{state}` is reachable from start; \
                 packets on it exhaust the parse budget (ParseErr::Looping)"
            ),
        });
    }
}

/// Pass 2 — header-validity dataflow (PDA101–PDA102). Classifies every
/// header-prefixed field a stage touches against the parser's must/may
/// extracted sets.
pub fn headers_pass(program: &DataplaneProgram, facts: &ParserFacts, out: &mut Vec<Diagnostic>) {
    for (i, stage) in program.stages.iter().enumerate() {
        // (field, is_write) pairs, deduped per stage.
        let mut touched: BTreeSet<(String, bool)> = BTreeSet::new();
        for col in &stage.table.key {
            touched.insert((col.field.clone(), false));
        }
        for a in table_actions(&stage.table) {
            for f in action_reads(a) {
                touched.insert((f.to_string(), false));
            }
            for f in action_writes(a) {
                touched.insert((f.to_string(), true));
            }
        }
        let mut reported: BTreeSet<String> = BTreeSet::new();
        for (field, is_write) in touched {
            let p = prefix(&field);
            let Some(hdr) = facts.may_extracted.get(p) else {
                continue; // meta.* and scratch fields: def-use pass territory
            };
            if !reported.insert(field.clone()) {
                continue;
            }
            if !hdr.fields.iter().any(|f| hdr.slot(f.name) == field) {
                out.push(Diagnostic {
                    code: "PDA101",
                    severity: Severity::Error,
                    location: stage_loc(program, i),
                    subject: field.clone(),
                    message: format!(
                        "header `{p}` declares no field making up `{field}`; \
                         the slot is dead PHV space (reads are always zero)"
                    ),
                });
            } else if !facts.must_extracted.contains(p) {
                let verb = if is_write { "written" } else { "read" };
                out.push(Diagnostic {
                    code: "PDA102",
                    severity: Severity::Info,
                    location: stage_loc(program, i),
                    subject: field.clone(),
                    message: format!(
                        "`{field}` is {verb} but header `{p}` is not extracted on every \
                         parser path; on the other paths the slot holds the silent \
                         zero default (DESIGN.md: silent-default semantics)"
                    ),
                });
            }
        }
    }
}

/// Pass 3 — stage def-use hazards (PDA201/202/211/212/213).
pub fn defuse_pass(program: &DataplaneProgram, facts: &ParserFacts, out: &mut Vec<Diagnostic>) {
    // Fields with a possible definition before each stage: intrinsic
    // metadata seeded by the pipeline, then every header field the
    // parser may extract, then anything an earlier stage may write.
    let mut defined: BTreeSet<String> = BTreeSet::new();
    defined.insert(meta::INGRESS_PORT.to_string());
    for hdr in facts.may_extracted.values() {
        for f in hdr.fields {
            defined.insert(hdr.slot(f.name));
        }
    }

    let declared: BTreeMap<&str, usize> = program
        .registers
        .iter()
        .map(|(n, s)| (n.as_str(), *s))
        .collect();
    // All possible definitions of a PHV field used as a register index:
    // `HashFields { modulo }` bounds it, `SetField { value }` pins it.
    let mut index_bounds: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for stage in &program.stages {
        for a in table_actions(&stage.table) {
            for p in &a.primitives {
                match p {
                    Primitive::HashFields { modulo, .. } if *modulo > 0 => {
                        index_bounds.entry(meta::HASH).or_default().push(modulo - 1)
                    }
                    Primitive::SetField { field, value } => {
                        index_bounds.entry(field).or_default().push(*value)
                    }
                    _ => {}
                }
            }
        }
    }

    // reg → stages touching it (for the cross-stage hazard check).
    let mut reg_stages: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();

    for (i, stage) in program.stages.iter().enumerate() {
        let mut reads: BTreeSet<String> = BTreeSet::new();
        for col in &stage.table.key {
            reads.insert(col.field.clone());
        }
        for a in table_actions(&stage.table) {
            for f in action_reads(a) {
                reads.insert(f.to_string());
            }
        }
        for field in reads {
            if defined.contains(&field) {
                continue;
            }
            let p = prefix(&field);
            if facts.may_extracted.contains_key(p) {
                continue; // undeclared header field: PDA101 already fired
            }
            if p == "meta" {
                out.push(Diagnostic {
                    code: "PDA202",
                    severity: Severity::Info,
                    location: stage_loc(program, i),
                    subject: field.clone(),
                    message: format!(
                        "metadata `{field}` is read but nothing writes it first; \
                         the read relies on the pinned zero default"
                    ),
                });
            } else {
                out.push(Diagnostic {
                    code: "PDA201",
                    severity: Severity::Warning,
                    location: stage_loc(program, i),
                    subject: field.clone(),
                    message: format!(
                        "`{field}` names no header, metadata, or earlier stage output; \
                         it always reads as zero"
                    ),
                });
            }
        }

        for a in table_actions(&stage.table) {
            for acc in action_reg_accesses(a) {
                reg_stages.entry(acc.reg.to_string()).or_default().insert(i);
                match declared.get(acc.reg) {
                    None => out.push(Diagnostic {
                        code: "PDA211",
                        severity: Severity::Error,
                        location: stage_loc(program, i),
                        subject: acc.reg.to_string(),
                        message: format!(
                            "register array `{}` is not declared by the program; \
                             writes are dropped and reads are zero",
                            acc.reg
                        ),
                    }),
                    Some(&size) => {
                        // Largest value the index field can provably take:
                        // max over its definitions, or 0 if never written.
                        let max_idx = index_bounds
                            .get(acc.index_field)
                            .map(|b| b.iter().copied().max().unwrap_or(0))
                            .unwrap_or(0);
                        if max_idx as usize >= size {
                            out.push(Diagnostic {
                                code: "PDA212",
                                severity: Severity::Warning,
                                location: stage_loc(program, i),
                                subject: format!("{}[{}]", acc.reg, acc.index_field),
                                message: format!(
                                    "index `{}` can reach {} but `{}` has {} slots; \
                                     out-of-range access is a silent no-op/zero",
                                    acc.index_field, max_idx, acc.reg, size
                                ),
                            });
                        }
                    }
                }
            }
        }
        for a in table_actions(&stage.table) {
            for f in action_writes(a) {
                defined.insert(f.to_string());
            }
        }
    }

    for (reg, stages) in &reg_stages {
        if stages.len() > 1 {
            let list: Vec<String> = stages.iter().map(|s| s.to_string()).collect();
            out.push(Diagnostic {
                code: "PDA213",
                severity: Severity::Warning,
                location: Location::Program,
                subject: reg.clone(),
                message: format!(
                    "register array `{}` is touched from stages [{}]; on real hardware \
                     a register binds to one stage and cross-stage access races",
                    reg,
                    list.join(", ")
                ),
            });
        }
    }
}

/// Pass 4 — action totality (PDA301/302/303).
pub fn totality_pass(
    program: &DataplaneProgram,
    config: &AnalyzeConfig,
    out: &mut Vec<Diagnostic>,
) {
    // A fall-through path exists iff every stage has some hit/miss
    // variant that neither forwards nor drops.
    let mut undecided_witness: Vec<String> = Vec::new();
    for stage in &program.stages {
        match table_actions(&stage.table)
            .iter()
            .find(|a| !action_decides(a))
        {
            Some(a) => undecided_witness.push(format!("{}:{}", stage.table.name, a.name)),
            None => {
                undecided_witness.clear();
                break;
            }
        }
    }
    if !program.stages.is_empty() && !undecided_witness.is_empty() {
        out.push(Diagnostic {
            code: "PDA301",
            severity: Severity::Warning,
            location: Location::Program,
            subject: undecided_witness.join(","),
            message: format!(
                "the hit/miss combination [{}] reaches the deparser without any \
                 Forward or Drop; egress falls through to the zero default (port 0)",
                undecided_witness.join(", ")
            ),
        });
    }

    for (i, stage) in program.stages.iter().enumerate() {
        if let Some(known) = &config.known_ports {
            for a in table_actions(&stage.table) {
                for p in &a.primitives {
                    if let Primitive::Forward { port } = p {
                        if !known.contains(port) {
                            out.push(Diagnostic {
                                code: "PDA302",
                                severity: Severity::Error,
                                location: stage_loc(program, i),
                                subject: port.to_string(),
                                message: format!(
                                    "action `{}` forwards to port {port}, which is not \
                                     in the declared port set",
                                    a.name
                                ),
                            });
                        }
                    }
                }
            }
        }
        let inert = stage.table.entries().is_empty()
            && stage
                .table
                .default_action
                .primitives
                .iter()
                .all(|p| matches!(p, Primitive::NoOp));
        if inert {
            out.push(Diagnostic {
                code: "PDA303",
                severity: Severity::Info,
                location: stage_loc(program, i),
                subject: stage.table.name.clone(),
                message: format!(
                    "table `{}` has no entries and a no-op default; the stage is inert",
                    stage.table.name
                ),
            });
        }
    }
}

/// Flow-identifying PHV slots: the P4BID-style taint *sources*.
pub const TAINT_SOURCES: &[&str] = &[
    "eth.src",
    "eth.dst",
    "ipv4.src",
    "ipv4.dst",
    "tcp.sport",
    "tcp.dport",
    "udp.sport",
    "udp.dport",
];

/// Is this PHV slot a mirror/clone *sink* — metadata that steers a
/// second copy of the packet to an extra egress?
pub fn is_mirror_sink(field: &str) -> bool {
    let Some(rest) = field.strip_prefix("meta.") else {
        return false;
    };
    ["mirror", "clone", "tap", "span", "copy_to"]
        .iter()
        .any(|k| rest.contains(k))
}

/// Pass 5 — P4BID-style taint lint (PDA401/402).
///
/// Sources are the flow-identifying fields in [`TAINT_SOURCES`]; taint
/// propagates through copies, arithmetic, and hashes (explicit flows)
/// and through table keys into the selected actions (implicit flows).
/// Sinks are mirror/clone metadata slots ([`is_mirror_sink`]): landing
/// tainted data — or any write under tainted control — there means the
/// program steers per-flow traffic to a second egress (the wiretap
/// shape, PDA401). The dual direction is PDA402: a register array the
/// program declares (and therefore attests as register state) that no
/// action ever writes — the observation path from traffic to attested
/// state is severed, so its readings are statically false (the rogue
/// monitor shape).
pub fn taint_pass(program: &DataplaneProgram, out: &mut Vec<Diagnostic>) {
    let mut tainted: BTreeSet<String> = TAINT_SOURCES.iter().map(|s| s.to_string()).collect();
    let mut tainted_regs: BTreeSet<String> = BTreeSet::new();
    let mut written_regs: BTreeSet<String> = BTreeSet::new();

    for (i, stage) in program.stages.iter().enumerate() {
        let control_tainted = stage
            .table
            .key
            .iter()
            .any(|col| tainted.contains(&col.field));
        // Fixpoint-free single sweep is sound here: stages execute in
        // order and taint only ever grows within a stage.
        let mut new_taint: BTreeSet<String> = BTreeSet::new();
        let mut sink_hits: BTreeSet<(String, String)> = BTreeSet::new();
        for a in table_actions(&stage.table) {
            for p in &a.primitives {
                let (dst, data_tainted): (Option<&str>, bool) = match p {
                    Primitive::SetField { field, .. } => (Some(field), false),
                    Primitive::CopyField { dst, src } => (Some(dst), tainted.contains(src)),
                    Primitive::AddToField { field, .. } => {
                        (Some(field), tainted.contains(field.as_str()))
                    }
                    Primitive::HashFields { fields, .. } => {
                        (Some(meta::HASH), fields.iter().any(|f| tainted.contains(f)))
                    }
                    Primitive::RegisterWrite {
                        reg, value_field, ..
                    } => {
                        written_regs.insert(reg.clone());
                        if tainted.contains(value_field) || control_tainted {
                            tainted_regs.insert(reg.clone());
                        }
                        (None, false)
                    }
                    Primitive::RegisterIncr { reg, .. } => {
                        written_regs.insert(reg.clone());
                        if control_tainted {
                            tainted_regs.insert(reg.clone());
                        }
                        (None, false)
                    }
                    Primitive::RegisterRead { reg, dst, .. } => {
                        (Some(dst), tainted_regs.contains(reg.as_str()))
                    }
                    _ => (None, false),
                };
                if let Some(dst) = dst {
                    if data_tainted || control_tainted {
                        new_taint.insert(dst.to_string());
                    }
                    if is_mirror_sink(dst) && (data_tainted || control_tainted) {
                        sink_hits.insert((dst.to_string(), a.name.clone()));
                    }
                }
            }
        }
        tainted.extend(new_taint);
        for (sink, action) in sink_hits {
            out.push(Diagnostic {
                code: "PDA401",
                severity: Severity::Error,
                location: stage_loc(program, i),
                subject: sink.clone(),
                message: format!(
                    "action `{action}` routes flow-identifying traffic to mirror sink \
                     `{sink}`: a second egress copy selected by tainted data \
                     (the wiretap shape; cf. P4BID)"
                ),
            });
        }
    }

    for (reg, size) in &program.registers {
        if !written_regs.contains(reg) {
            out.push(Diagnostic {
                code: "PDA402",
                severity: Severity::Error,
                location: Location::Program,
                subject: reg.clone(),
                message: format!(
                    "register array `{reg}` ({size} slots) is declared — and attested \
                     as register state — but no action ever writes it; the observation \
                     path from traffic to attested state is severed, so its readings \
                     are statically false"
                ),
            });
        }
    }
}

/// Symbolic image of one key cell over the column's dimension, or
/// `None` when the cell is not an equality constraint over the full
/// 64-bit value (LPM and partial ternary masks).
fn cell_sp(ar: &mut Arena, col: u16, cell: &KeyCell) -> Option<Sp> {
    match cell {
        KeyCell::Exact(v) => Some(ar.sp_test(col, *v)),
        KeyCell::Ternary { mask, .. } if *mask == 0 => Some(Sp::FULL),
        KeyCell::Ternary { value, mask } if *mask == u64::MAX => Some(ar.sp_test(col, *value)),
        KeyCell::Any => Some(Sp::FULL),
        KeyCell::Lpm { .. } | KeyCell::Ternary { .. } => None,
    }
}

/// Pass 6 — symbolic table-rule reachability (PDA501–PDA503), built on
/// `pda-netkat`'s hash-consed symbolic packet sets: the table's key
/// columns span a packet space (one dimension per column), each entry's
/// guard denotes a set in it, and an entry whose guard is contained in
/// the union of all higher-precedence guards can never fire.
///
/// Precedence mirrors `Table::lookup`: entry `j` dominates entry `i`
/// iff `(priority_j, specificity_j) > (priority_i, specificity_i)`, or
/// the pairs are equal and `j` was inserted earlier.
///
/// Soundness under partial representability: guards outside the
/// equality fragment (LPM, partial ternary masks) contribute the
/// **empty** set to every shadow/cover union (an under-approximation of
/// what they match), and entries containing them are never themselves
/// claimed dead. Both directions therefore only ever *miss* findings,
/// never fabricate them — required, since PDA502 feeds the
/// `RequireLintClean` appraisal policy.
pub fn symbolic_pass(program: &DataplaneProgram, out: &mut Vec<Diagnostic>) {
    for (i, stage) in program.stages.iter().enumerate() {
        let table = &stage.table;
        if table.entries().is_empty() {
            continue;
        }
        let mut ar = Arena::new(table.key.len() as u16);
        let guards: Vec<Option<Sp>> = table
            .entries()
            .iter()
            .map(|e| {
                let mut g = Sp::FULL;
                for (col, cell) in e.key.iter().enumerate() {
                    let c = cell_sp(&mut ar, col as u16, cell)?;
                    g = ar.sp_intersect(g, c);
                }
                Some(g)
            })
            .collect();
        let rank: Vec<(i32, u32)> = table
            .entries()
            .iter()
            .map(|e| (e.priority, e.key.iter().map(KeyCell::specificity).sum()))
            .collect();

        for (idx, e) in table.entries().iter().enumerate() {
            let Some(g) = guards[idx] else {
                continue; // not claimable without an exact guard
            };
            let mut shadow = Sp::EMPTY;
            for j in 0..table.entries().len() {
                let dominates = rank[j] > rank[idx] || (rank[j] == rank[idx] && j < idx);
                if j != idx && dominates {
                    if let Some(gj) = guards[j] {
                        shadow = ar.sp_union(shadow, gj);
                    }
                }
            }
            if ar.sp_diff(g, shadow) == Sp::EMPTY {
                let drops = e
                    .action
                    .primitives
                    .iter()
                    .any(|p| matches!(p, Primitive::Drop));
                if drops {
                    out.push(Diagnostic {
                        code: "PDA502",
                        severity: Severity::Error,
                        location: stage_loc(program, i),
                        subject: format!("{}[{idx}]", table.name),
                        message: format!(
                            "entry {idx} of table `{}` (action `{}`) drops, but every \
                             packet it matches is claimed first by higher-precedence \
                             entries: the advertised block is symbolically dead and \
                             can never fire",
                            table.name, e.action.name
                        ),
                    });
                } else {
                    out.push(Diagnostic {
                        code: "PDA501",
                        severity: Severity::Warning,
                        location: stage_loc(program, i),
                        subject: format!("{}[{idx}]", table.name),
                        message: format!(
                            "entry {idx} of table `{}` (action `{}`) is fully shadowed \
                             by higher-precedence entries and can never fire",
                            table.name, e.action.name
                        ),
                    });
                }
            }
        }

        // PDA503: the default action can fire only on packets no entry
        // matches; if representable guards already cover the whole key
        // space, the default is unreachable. Skipped for no-op defaults
        // (nothing of substance is lost).
        let default_noop = table
            .default_action
            .primitives
            .iter()
            .all(|p| matches!(p, Primitive::NoOp));
        if !default_noop {
            let mut cover = Sp::EMPTY;
            for g in guards.iter().flatten() {
                cover = ar.sp_union(cover, *g);
            }
            if cover == Sp::FULL {
                out.push(Diagnostic {
                    code: "PDA503",
                    severity: Severity::Info,
                    location: stage_loc(program, i),
                    subject: table.name.clone(),
                    message: format!(
                        "the entries of table `{}` cover the whole key space; its \
                         default action `{}` is unreachable",
                        table.name, table.default_action.name
                    ),
                });
            }
        }
    }
}

/// Run every pass over `program` and return the sorted diagnostics.
pub fn run_all(program: &DataplaneProgram, config: &AnalyzeConfig) -> Vec<Diagnostic> {
    let facts = parser_facts(&program.parser);
    let mut out = Vec::new();
    parser_pass(program, &facts, &mut out);
    headers_pass(program, &facts, &mut out);
    defuse_pass(program, &facts, &mut out);
    totality_pass(program, config, &mut out);
    taint_pass(program, &mut out);
    symbolic_pass(program, &mut out);
    out.sort_by(|a, b| (a.code, &a.location, &a.subject).cmp(&(b.code, &b.location, &b.subject)));
    out
}
