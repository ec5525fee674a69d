//! Shared IR inspection helpers: field read/write sets per action,
//! register access extraction, and parser path facts (reachability,
//! accept paths, must/may-extracted header sets).

use pda_dataplane::headers::HeaderDef;
use pda_dataplane::parser::{ParseState, ParserDef, Select};
use pda_dataplane::{Action, Primitive, Table};
use std::collections::{BTreeMap, BTreeSet};

/// `"ipv4.src"` → `"ipv4"`; a dotless field is its own prefix.
pub fn prefix(field: &str) -> &str {
    field.split('.').next().unwrap_or(field)
}

/// PHV fields an action reads (register index/value fields included —
/// they are PHV reads at execution time).
pub fn action_reads(a: &Action) -> Vec<&str> {
    let mut out = Vec::new();
    for p in &a.primitives {
        match p {
            Primitive::CopyField { src, .. } => out.push(src.as_str()),
            Primitive::AddToField { field, .. } => out.push(field.as_str()),
            Primitive::HashFields { fields, .. } => {
                out.extend(fields.iter().map(String::as_str));
            }
            Primitive::RegisterWrite {
                index_field,
                value_field,
                ..
            } => {
                out.push(index_field.as_str());
                out.push(value_field.as_str());
            }
            Primitive::RegisterRead { index_field, .. }
            | Primitive::RegisterIncr { index_field, .. } => out.push(index_field.as_str()),
            _ => {}
        }
    }
    out
}

/// PHV fields an action writes. `Forward`/`Drop` write the egress-port
/// metadata; `HashFields` writes `meta.hash` (see `actions::execute`).
pub fn action_writes(a: &Action) -> Vec<&str> {
    let mut out = Vec::new();
    for p in &a.primitives {
        match p {
            Primitive::SetField { field, .. } | Primitive::AddToField { field, .. } => {
                out.push(field.as_str())
            }
            Primitive::CopyField { dst, .. } | Primitive::RegisterRead { dst, .. } => {
                out.push(dst.as_str())
            }
            Primitive::HashFields { .. } => out.push(pda_dataplane::phv::meta::HASH),
            Primitive::Forward { .. } | Primitive::Drop => {
                out.push(pda_dataplane::phv::meta::EGRESS_PORT)
            }
            _ => {}
        }
    }
    out
}

/// Does the action decide the packet's fate (any `Forward` or `Drop`)?
pub fn action_decides(a: &Action) -> bool {
    a.primitives
        .iter()
        .any(|p| matches!(p, Primitive::Forward { .. } | Primitive::Drop))
}

/// Every action a table can run: the default plus each entry's.
pub fn table_actions(t: &Table) -> Vec<&Action> {
    let mut out = vec![&t.default_action];
    out.extend(t.entries().iter().map(|e| &e.action));
    out
}

/// A register access site.
#[derive(Clone, Debug)]
pub struct RegAccess<'a> {
    /// Register array name.
    pub reg: &'a str,
    /// PHV field supplying the index.
    pub index_field: &'a str,
    /// `true` for `RegisterWrite`/`RegisterIncr` (mutating).
    pub writes: bool,
}

/// All register accesses an action performs.
pub fn action_reg_accesses(a: &Action) -> Vec<RegAccess<'_>> {
    let mut out = Vec::new();
    for p in &a.primitives {
        match p {
            Primitive::RegisterWrite {
                reg, index_field, ..
            }
            | Primitive::RegisterIncr { reg, index_field } => out.push(RegAccess {
                reg,
                index_field,
                writes: true,
            }),
            Primitive::RegisterRead {
                reg, index_field, ..
            } => out.push(RegAccess {
                reg,
                index_field,
                writes: false,
            }),
            _ => {}
        }
    }
    out
}

/// Facts about a parse graph, computed once and shared by the parser,
/// header-validity, and def-use passes.
#[derive(Clone, Debug, Default)]
pub struct ParserFacts {
    /// States reachable from `start`.
    pub reachable: BTreeSet<String>,
    /// `(referencing state, missing target)` pairs; `("", start)` when
    /// the start state itself is missing.
    pub unknown_refs: Vec<(String, String)>,
    /// Does some path from `start` reach an accept?
    pub has_accept_path: bool,
    /// A state on a select cycle reachable from `start`, if any.
    pub cycle_state: Option<String>,
    /// Headers extracted on *some* accepting path (name → definition).
    pub may_extracted: BTreeMap<String, HeaderDef>,
    /// Headers extracted on *every* accepting path.
    pub must_extracted: BTreeSet<String>,
}

/// Successor state names of a select: all case targets plus the
/// default. An `On` with `default: None` additionally *accepts* when no
/// case matches (the parser's implicit-accept semantics).
fn successors(sel: &Select) -> Vec<&str> {
    match sel {
        Select::Accept => Vec::new(),
        Select::On { cases, default, .. } => {
            let mut out: Vec<&str> = cases.values().map(String::as_str).collect();
            if let Some(d) = default {
                out.push(d.as_str());
            }
            out
        }
    }
}

/// Can the parser stop *at* this state (explicit or implicit accept)?
fn accepts_here(sel: &Select) -> bool {
    match sel {
        Select::Accept => true,
        // No matching case + no default ⇒ `parse` returns with what it
        // has — an implicit accept for every uncovered selector value.
        Select::On { default, .. } => default.is_none(),
    }
}

/// Compute [`ParserFacts`] for a parse graph.
pub fn parser_facts(parser: &ParserDef) -> ParserFacts {
    let mut facts = ParserFacts::default();
    let states: BTreeMap<&str, &ParseState> =
        parser.states.iter().map(|s| (s.name.as_str(), s)).collect();

    if !states.contains_key(parser.start.as_str()) {
        facts
            .unknown_refs
            .push((String::new(), parser.start.clone()));
        return facts;
    }

    // Reachability + unknown references + cycle detection (iterative
    // DFS with colors: 0 unvisited, 1 on stack, 2 done).
    let mut color: BTreeMap<&str, u8> = BTreeMap::new();
    let mut stack: Vec<(&str, usize)> = vec![(parser.start.as_str(), 0)];
    color.insert(parser.start.as_str(), 1);
    facts.reachable.insert(parser.start.clone());
    while let Some((name, edge)) = stack.pop() {
        let state = states[name];
        let succ = successors(&state.select);
        if edge < succ.len() {
            stack.push((name, edge + 1));
            let next = succ[edge];
            match states.get(next) {
                None => {
                    facts
                        .unknown_refs
                        .push((name.to_string(), next.to_string()));
                }
                Some(_) => match color.get(next).copied().unwrap_or(0) {
                    0 => {
                        color.insert(next, 1);
                        facts.reachable.insert(next.to_string());
                        stack.push((next, 0));
                    }
                    1 => {
                        // Back edge: `next` is on the current DFS path.
                        facts.cycle_state.get_or_insert(next.to_string());
                    }
                    _ => {}
                },
            }
        } else {
            color.insert(name, 2);
        }
    }

    // Accepting-path enumeration for must/may extracted sets. Bounded
    // DFS: a state is visited at most once per path (cycles cut), so
    // path count is finite and tiny for realistic parse graphs.
    let mut on_path: Vec<&str> = Vec::new();
    let mut extracted: Vec<&str> = Vec::new();
    enumerate_paths(
        parser.start.as_str(),
        &states,
        &mut on_path,
        &mut extracted,
        &mut facts,
    );
    facts
}

fn enumerate_paths<'a>(
    name: &'a str,
    states: &BTreeMap<&'a str, &'a ParseState>,
    on_path: &mut Vec<&'a str>,
    extracted: &mut Vec<&'a str>,
    facts: &mut ParserFacts,
) {
    let Some(state) = states.get(name) else {
        return; // unknown target: already diagnosed, not an accept path
    };
    if on_path.contains(&name) {
        return; // cycle: cut this path
    }
    on_path.push(name);
    let pushed_header = if let Some(h) = &state.extract {
        extracted.push(h.name);
        facts.may_extracted.entry(h.name.to_string()).or_insert(*h);
        true
    } else {
        false
    };

    if accepts_here(&state.select) {
        let here: BTreeSet<String> = extracted.iter().map(|s| s.to_string()).collect();
        if facts.has_accept_path {
            facts.must_extracted = facts.must_extracted.intersection(&here).cloned().collect();
        } else {
            facts.must_extracted = here;
            facts.has_accept_path = true;
        }
    }
    for next in successors(&state.select) {
        enumerate_paths(next, states, on_path, extracted, facts);
    }

    if pushed_header {
        extracted.pop();
    }
    on_path.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_dataplane::standard_parser;

    #[test]
    fn standard_parser_facts() {
        let facts = parser_facts(&standard_parser());
        assert!(facts.has_accept_path);
        assert!(facts.cycle_state.is_none());
        assert!(facts.unknown_refs.is_empty());
        // Every header is conditionally extractable…
        for h in ["eth", "ipv4", "udp", "tcp", "pda", "sig"] {
            assert!(facts.may_extracted.contains_key(h), "may should have {h}");
        }
        // …but only Ethernet is guaranteed (non-IPv4 ethertypes accept
        // straight after `eth`).
        assert_eq!(
            facts.must_extracted.iter().cloned().collect::<Vec<_>>(),
            vec!["eth".to_string()]
        );
    }
}
