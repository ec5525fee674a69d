//! Compiling NetKAT policies to PISA dataplane programs.
//!
//! The paper positions NetKAT as the language of the SDN layer and PISA
//! as the enforcement hardware; this module closes the loop by
//! compiling a (deterministic, dup-free, star-free) NetKAT policy into a
//! [`DataplaneProgram`] whose program digest a PERA switch can then
//! attest — i.e. *the network can prove it runs the compiled form of a
//! reviewed policy*.
//!
//! ## Field mapping
//!
//! | NetKAT field | dataplane slot |
//! |---|---|
//! | `pt`    | `meta.ingress_port` (tests) / egress port (mods) |
//! | `src`   | `ipv4.src` |
//! | `dst`   | `ipv4.dst` |
//! | `proto` | `ipv4.proto` |
//! | `tag`   | `ipv4.dscp` |
//! | `sw`    | not compiled — used to slice a network policy per switch |
//!
//! ## Method
//!
//! Dup-free, star-free NetKAT over equality tests has a finite model:
//! behaviour depends only on which *mentioned constant* (or "some other
//! value") each field holds. The compiler enumerates that model, runs
//! the reference semantics ([`pda_netkat::eval_packet`]) on each class
//! representative, and emits one ternary table entry per class —
//! mentioned values match exactly, the fresh class becomes a wildcard at
//! lower priority. Policies whose outputs are not functions (multicast
//! via `+`) are rejected with [`CompileError::NonDeterministic`].
//!
//! The `compiled_agrees_with_semantics` property test in
//! `tests/prop.rs` checks the compiled pipeline against the reference
//! semantics over random policies and packets.
//!
//! ## Translation validation
//!
//! Testing on sampled packets is complemented by a per-compile proof:
//! [`reconstruct`] decodes the emitted table back into NetKAT (entry
//! guards in lookup-precedence order, each conjoined with the negation
//! of every higher-precedence guard) and [`validate`] checks the
//! decoded policy symbolically equivalent to the source on the `sw = 0`
//! plane via `pda-netkat`'s SPP engine, returning a concrete
//! counterexample packet on any mismatch. [`compile_validated`] bundles
//! both; its successes carry an equivalence proof, so attesting the
//! program digest transitively attests the reviewed source policy.

use pda_dataplane::actions::{Action, Primitive};
use pda_dataplane::parser::standard_parser;
use pda_dataplane::pipeline::{DataplaneProgram, Stage};
use pda_dataplane::tables::{Entry, KeyCell, KeyCol, MatchKind, Table};
use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::semantics::eval_set;
use std::collections::BTreeSet;
use std::fmt;

/// Compilation errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The policy contains `dup` (histories are not a dataplane notion).
    HasDup,
    /// The policy contains `*` (unbounded iteration needs recirculation,
    /// which this compiler does not model).
    HasStar,
    /// Some input class produces more than one output packet.
    NonDeterministic {
        /// A witness input.
        witness: Packet,
        /// Number of outputs it produced.
        outputs: usize,
    },
    /// The policy modifies `sw` (switch identity is topological, not a
    /// rewritable header here).
    ModifiesSwitch,
    /// Translation validation found an input on which the compiled
    /// program and the source policy disagree (compiler bug).
    ValidationFailed {
        /// An input packet distinguishing source from compiled form.
        witness: Packet,
    },
    /// The emitted program uses constructs outside the NetKAT-decodable
    /// fragment, so its equivalence to the source cannot be checked.
    Unvalidatable(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::HasDup => write!(f, "policy contains dup"),
            CompileError::HasStar => write!(f, "policy contains Kleene star"),
            CompileError::NonDeterministic { witness, outputs } => {
                write!(f, "policy is multicast on {witness:?} ({outputs} outputs)")
            }
            CompileError::ModifiesSwitch => write!(f, "policy modifies sw"),
            CompileError::ValidationFailed { witness } => {
                write!(f, "translation validation failed: compiled program disagrees with source on {witness:?}")
            }
            CompileError::Unvalidatable(why) => {
                write!(
                    f,
                    "compiled program cannot be decoded for validation: {why}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

fn has_star(p: &Policy) -> bool {
    match p {
        Policy::Filter(_) | Policy::Mod(_, _) | Policy::Dup => false,
        Policy::Star(_) => true,
        Policy::Union(a, b) | Policy::Seq(a, b) => has_star(a) || has_star(b),
    }
}

fn modifies_switch(p: &Policy) -> bool {
    match p {
        Policy::Mod(Field::Switch, _) => true,
        Policy::Filter(_) | Policy::Mod(_, _) | Policy::Dup => false,
        Policy::Star(a) => modifies_switch(a),
        Policy::Union(a, b) | Policy::Seq(a, b) => modifies_switch(a) || modifies_switch(b),
    }
}

/// The dataplane slot a NetKAT field tests against.
fn test_slot(f: Field) -> &'static str {
    match f {
        Field::Switch => "meta.switch_id", // only used when slicing fails
        Field::Port => "meta.ingress_port",
        Field::Src => "ipv4.src",
        Field::Dst => "ipv4.dst",
        Field::Proto => "ipv4.proto",
        Field::Tag => "ipv4.dscp",
    }
}

/// The dataplane primitive a NetKAT field modification becomes.
fn mod_primitive(f: Field, v: u32) -> Primitive {
    match f {
        Field::Port => Primitive::Forward { port: u64::from(v) },
        Field::Switch => unreachable!("rejected by modifies_switch"),
        other => Primitive::SetField {
            field: test_slot(other).to_string(),
            value: u64::from(v),
        },
    }
}

/// Per-field value domains: mentioned constants plus one fresh value.
fn domains(p: &Policy) -> Vec<(Field, Vec<u32>, u32)> {
    let mut consts = Vec::new();
    p.constants(&mut consts);
    Field::ALL
        .into_iter()
        .map(|f| {
            let mut vals: Vec<u32> = consts
                .iter()
                .filter(|(g, _)| *g == f)
                .map(|(_, v)| *v)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            let fresh = (0..).find(|v| !vals.contains(v)).expect("u32 space");
            (f, vals, fresh)
        })
        .collect()
}

/// Compile `policy` (the slice for one switch) into a single-table
/// dataplane program named `name`.
pub fn compile(policy: &Policy, name: &str) -> Result<DataplaneProgram, CompileError> {
    if policy.has_dup() {
        return Err(CompileError::HasDup);
    }
    if has_star(policy) {
        return Err(CompileError::HasStar);
    }
    if modifies_switch(policy) {
        return Err(CompileError::ModifiesSwitch);
    }

    let doms = domains(policy);
    // Key columns: one ternary column per field that the policy actually
    // mentions (others are don't-care).
    let used: Vec<(Field, Vec<u32>, u32)> = doms
        .into_iter()
        .filter(|(f, vals, _)| !vals.is_empty() && *f != Field::Switch)
        .collect();

    let key: Vec<KeyCol> = used
        .iter()
        .map(|(f, _, _)| KeyCol {
            field: test_slot(*f).to_string(),
            kind: MatchKind::Ternary,
        })
        .collect();
    let mut table = Table::new(format!("{name}_t0"), key, Action::drop_());

    // Enumerate the finite model over the used fields.
    let mut class_values: Vec<Vec<Option<u32>>> = vec![vec![]]; // None = fresh
    for (_, vals, _) in &used {
        let mut next = Vec::new();
        for prefix in &class_values {
            for v in vals {
                let mut p = prefix.clone();
                p.push(Some(*v));
                next.push(p);
            }
            let mut p = prefix.clone();
            p.push(None);
            next.push(p);
        }
        class_values = next;
    }

    for class in &class_values {
        // Build the representative packet.
        let mut rep = Packet::zero();
        for ((f, _, fresh), choice) in used.iter().zip(class) {
            rep = rep.with(*f, choice.unwrap_or(*fresh));
        }
        let outs = eval_set(policy, &BTreeSet::from([rep]));
        let action = match outs.len() {
            0 => Action::drop_(),
            1 => {
                let out = *outs.iter().next().expect("len 1");
                let mut prims = Vec::new();
                let mut forwarded = false;
                // Only fields the policy mentions can have been written;
                // within one equivalence class, "written to the same
                // value" and "passed through" coincide, so rewriting is
                // emitted only where the representative's value changed.
                for (f, _, _) in &used {
                    if out.get(*f) != rep.get(*f) {
                        if *f == Field::Port {
                            forwarded = true;
                        }
                        prims.push(mod_primitive(*f, out.get(*f)));
                    }
                }
                if !forwarded {
                    // Port passthrough: NetKAT's identity on pt.
                    prims.push(Primitive::CopyField {
                        dst: "meta.egress_port".to_string(),
                        src: "meta.ingress_port".to_string(),
                    });
                }
                Action::named(format!("rewrite_{}", table.entries().len()), prims)
            }
            n => {
                return Err(CompileError::NonDeterministic {
                    witness: rep,
                    outputs: n,
                })
            }
        };
        // Key cells: exact ternary for mentioned values, wildcard for fresh.
        let cells: Vec<KeyCell> = class
            .iter()
            .map(|choice| match choice {
                Some(v) => KeyCell::Ternary {
                    value: u64::from(*v),
                    mask: u64::MAX,
                },
                None => KeyCell::Any,
            })
            .collect();
        let specificity = class.iter().filter(|c| c.is_some()).count() as i32;
        table
            .insert(Entry {
                key: cells,
                priority: specificity, // more specific classes win
                action,
            })
            .expect("generated entries are well-shaped");
    }

    Ok(DataplaneProgram {
        name: format!("{name}.p4"),
        version: "nk-1".into(),
        parser: standard_parser(),
        stages: vec![Stage { table }],
        registers: vec![],
    })
}

/// Run the compiled program on a packet corresponding to the NetKAT
/// packet `pkt` and translate the result back. Helper for tests and for
/// cross-validation.
pub fn run_compiled(prog: &DataplaneProgram, pkt: Packet) -> Option<Packet> {
    // Generous payload: after the proto patch below the parser may
    // interpret the L4 region as TCP (20B) + signature window (8B), so
    // the packet must be long enough for any parse branch.
    let raw = pda_dataplane::build_udp_packet(
        0xa,
        0xb,
        pkt.get(Field::Src),
        pkt.get(Field::Dst),
        40_000,
        443,
        &[0x55u8; 32],
    );
    // Patch proto and dscp into the raw bytes: proto at offset 14+9,
    // dscp at 14+1 (see pda_dataplane::headers::ipv4 layout).
    let mut raw = raw;
    raw[14 + 9] = (pkt.get(Field::Proto) & 0xff) as u8;
    raw[14 + 1] = (pkt.get(Field::Tag) & 0xff) as u8;
    let mut regs = prog.make_registers();
    let out = prog
        .process(&raw, u64::from(pkt.get(Field::Port)), &mut regs)
        .expect("compiled packets parse");
    let egress = out.packet?;
    let reparsed = standard_parser().parse(&egress).expect("egress parses");
    Some(
        Packet::zero()
            .with(Field::Switch, pkt.get(Field::Switch))
            .with(Field::Port, out.egress_port as u32)
            .with(Field::Src, reparsed.phv.get("ipv4.src") as u32)
            .with(Field::Dst, reparsed.phv.get("ipv4.dst") as u32)
            .with(Field::Proto, reparsed.phv.get("ipv4.proto") as u32)
            .with(Field::Tag, reparsed.phv.get("ipv4.dscp") as u32),
    )
}

// ----------------------------------------------------------------------
// Translation validation
// ----------------------------------------------------------------------

/// The NetKAT field a dataplane slot decodes back to (inverse of
/// [`test_slot`]).
fn rev_slot(slot: &str) -> Option<Field> {
    match slot {
        "meta.switch_id" => Some(Field::Switch),
        "meta.ingress_port" => Some(Field::Port),
        "ipv4.src" => Some(Field::Src),
        "ipv4.dst" => Some(Field::Dst),
        "ipv4.proto" => Some(Field::Proto),
        "ipv4.dscp" => Some(Field::Tag),
        _ => None,
    }
}

fn cell_pred(col: &KeyCol, cell: &KeyCell) -> Result<Pred, CompileError> {
    let f = rev_slot(&col.field)
        .ok_or_else(|| CompileError::Unvalidatable(format!("key column {}", col.field)))?;
    let test = |v: u64| -> Result<Pred, CompileError> {
        let v = u32::try_from(v)
            .map_err(|_| CompileError::Unvalidatable(format!("64-bit match value {v}")))?;
        Ok(Pred::test(f, v))
    };
    match cell {
        KeyCell::Exact(v) => test(*v),
        KeyCell::Ternary { mask, .. } if *mask == 0 => Ok(Pred::True),
        KeyCell::Ternary { value, mask } if *mask == u64::MAX => test(*value),
        KeyCell::Ternary { mask, .. } => Err(CompileError::Unvalidatable(format!(
            "partial ternary mask {mask:#x}"
        ))),
        KeyCell::Any => Ok(Pred::True),
        KeyCell::Lpm { .. } => Err(CompileError::Unvalidatable("LPM match".into())),
    }
}

fn action_policy(a: &Action) -> Result<Policy, CompileError> {
    let mut acc = Policy::id();
    for prim in &a.primitives {
        let step = match prim {
            Primitive::Drop => Policy::drop(),
            Primitive::Forward { port } => {
                let p = u32::try_from(*port)
                    .map_err(|_| CompileError::Unvalidatable("64-bit port".into()))?;
                Policy::assign(Field::Port, p)
            }
            Primitive::SetField { field, value } => {
                let f = rev_slot(field).ok_or_else(|| {
                    CompileError::Unvalidatable(format!("SetField target {field}"))
                })?;
                let v = u32::try_from(*value)
                    .map_err(|_| CompileError::Unvalidatable("64-bit value".into()))?;
                Policy::assign(f, v)
            }
            Primitive::CopyField { dst, src }
                if dst == "meta.egress_port" && src == "meta.ingress_port" =>
            {
                // Port passthrough: NetKAT identity on `pt`.
                Policy::id()
            }
            Primitive::NoOp => Policy::id(),
            other => {
                return Err(CompileError::Unvalidatable(format!(
                    "primitive {other:?} has no NetKAT image"
                )))
            }
        };
        acc = seq_simpl(acc, step);
    }
    Ok(acc)
}

/// `p ; q` with unit/zero laws applied, to keep reconstructions small.
fn seq_simpl(p: Policy, q: Policy) -> Policy {
    use pda_netkat::ast::Pred as P;
    match (&p, &q) {
        (Policy::Filter(P::True), _) => q,
        (_, Policy::Filter(P::True)) => p,
        (Policy::Filter(P::False), _) | (_, Policy::Filter(P::False)) => Policy::drop(),
        _ => p.seq(q),
    }
}

fn table_policy(table: &Table) -> Result<Policy, CompileError> {
    // Entry guards as predicates, in lookup-precedence order: higher
    // (priority, specificity) first, insertion order breaking ties —
    // mirroring `Table::lookup`.
    let mut order: Vec<usize> = (0..table.entries().len()).collect();
    let spec = |e: &Entry| -> u64 { e.key.iter().map(|c| u64::from(c.specificity())).sum() };
    order.sort_by_key(|&i| {
        let e = &table.entries()[i];
        (std::cmp::Reverse(e.priority), std::cmp::Reverse(spec(e)), i)
    });

    let mut seen = Pred::False; // union of higher-precedence guards
    let mut arms: Vec<Policy> = Vec::new();
    for i in order {
        let e = &table.entries()[i];
        let mut guard = Pred::True;
        for (col, cell) in table.key.iter().zip(&e.key) {
            guard = and_simpl(guard, cell_pred(col, cell)?);
        }
        let eff = and_simpl(guard.clone(), not_simpl(seen.clone()));
        arms.push(seq_simpl(Policy::Filter(eff), action_policy(&e.action)?));
        seen = or_simpl(seen, guard);
    }
    // Miss: the default action fires.
    arms.push(seq_simpl(
        Policy::Filter(not_simpl(seen)),
        action_policy(&table.default_action)?,
    ));
    let mut out = Policy::drop();
    for arm in arms {
        out = union_simpl(out, arm);
    }
    Ok(out)
}

fn and_simpl(a: Pred, b: Pred) -> Pred {
    match (&a, &b) {
        (Pred::True, _) => b,
        (_, Pred::True) => a,
        (Pred::False, _) | (_, Pred::False) => Pred::False,
        _ => a.and(b),
    }
}

fn or_simpl(a: Pred, b: Pred) -> Pred {
    match (&a, &b) {
        (Pred::False, _) => b,
        (_, Pred::False) => a,
        (Pred::True, _) | (_, Pred::True) => Pred::True,
        _ => a.or(b),
    }
}

fn not_simpl(a: Pred) -> Pred {
    match a {
        Pred::True => Pred::False,
        Pred::False => Pred::True,
        other => other.not(),
    }
}

fn union_simpl(a: Policy, b: Policy) -> Policy {
    match (&a, &b) {
        (Policy::Filter(Pred::False), _) => b,
        (_, Policy::Filter(Pred::False)) => a,
        _ => a.union(b),
    }
}

/// Decode a compiled program back into the NetKAT policy it implements:
/// each stage's table becomes a first-match union (entry guards ordered
/// by lookup precedence, each conjoined with the negation of every
/// higher-precedence guard), stages compose sequentially.
///
/// Only the fragment `compile` emits is decodable — exact/full-mask
/// ternary matches over the standard slot mapping, and actions built
/// from `Forward`/`SetField`/`Drop`/port passthrough. Anything else
/// yields [`CompileError::Unvalidatable`].
pub fn reconstruct(prog: &DataplaneProgram) -> Result<Policy, CompileError> {
    let mut out = Policy::id();
    for stage in &prog.stages {
        out = seq_simpl(out, table_policy(&stage.table)?);
    }
    Ok(out)
}

/// Symbolic translation validation: check that `prog` implements
/// `policy` on the `sw = 0` plane (the compiler evaluates the finite
/// model at `sw = 0` and never emits switch-identity matches), returning
/// a counterexample input on disagreement.
pub fn validate(policy: &Policy, prog: &DataplaneProgram) -> Result<(), CompileError> {
    let decoded = reconstruct(prog)?;
    match pda_netkat::equiv::counterexample_under(&Pred::test(Field::Switch, 0), policy, &decoded) {
        None => Ok(()),
        Some(witness) => Err(CompileError::ValidationFailed { witness }),
    }
}

/// [`compile`] followed by [`validate`]: the returned program is
/// symbolically proven equivalent to the source policy, so attesting its
/// digest transitively attests the reviewed NetKAT source. This is the
/// entry point `pda-hybrid` callers should prefer.
pub fn compile_validated(policy: &Policy, name: &str) -> Result<DataplaneProgram, CompileError> {
    let prog = compile(policy, name)?;
    validate(policy, &prog)?;
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pda_netkat::semantics::eval_packet;

    fn agree(policy: &Policy, pkt: Packet) {
        let prog = compile(policy, "t").expect("compiles");
        let reference = eval_packet(policy, pkt);
        let compiled = run_compiled(&prog, pkt);
        match (reference.len(), compiled) {
            (0, None) => {}
            (1, Some(got)) => {
                let want = *reference.iter().next().unwrap();
                assert_eq!(got, want, "policy {policy}");
            }
            (r, c) => panic!("mismatch: reference {r} outputs, compiled {c:?}"),
        }
    }

    fn pkt(src: u32, dst: u32, proto: u32, port: u32) -> Packet {
        Packet::of(&[
            (Field::Src, src),
            (Field::Dst, dst),
            (Field::Proto, proto),
            (Field::Port, port),
        ])
    }

    #[test]
    fn compile_filter_and_forward() {
        let p = Policy::filter(Pred::test(Field::Dst, 10)).seq(Policy::assign(Field::Port, 3));
        agree(&p, pkt(1, 10, 6, 0));
        agree(&p, pkt(1, 11, 6, 0)); // dropped
    }

    #[test]
    fn compile_field_rewrite() {
        let p = Policy::assign(Field::Tag, 42).seq(Policy::assign(Field::Port, 1));
        agree(&p, pkt(5, 6, 17, 0));
    }

    #[test]
    fn compile_guarded_union_is_deterministic() {
        // Disjoint guards: deterministic despite the union.
        let p = Policy::filter(Pred::test(Field::Proto, 6))
            .seq(Policy::assign(Field::Port, 1))
            .union(
                Policy::filter(Pred::test(Field::Proto, 6).not())
                    .seq(Policy::assign(Field::Port, 2)),
            );
        agree(&p, pkt(1, 2, 6, 0));
        agree(&p, pkt(1, 2, 17, 0));
    }

    #[test]
    fn multicast_rejected() {
        let p = Policy::assign(Field::Port, 1).union(Policy::assign(Field::Port, 2));
        assert!(matches!(
            compile(&p, "t"),
            Err(CompileError::NonDeterministic { .. })
        ));
    }

    #[test]
    fn star_and_dup_rejected() {
        assert_eq!(
            compile(&Policy::id().star(), "t"),
            Err(CompileError::HasStar)
        );
        assert_eq!(compile(&Policy::Dup, "t"), Err(CompileError::HasDup));
        assert_eq!(
            compile(&Policy::assign(Field::Switch, 2), "t"),
            Err(CompileError::ModifiesSwitch)
        );
    }

    #[test]
    fn drop_policy_drops_everything() {
        let prog = compile(&Policy::drop(), "t").unwrap();
        assert_eq!(run_compiled(&prog, pkt(1, 2, 6, 0)), None);
    }

    #[test]
    fn identity_forwards_out_ingress_port() {
        let p = Policy::id();
        agree(&p, pkt(1, 2, 6, 4));
    }

    #[test]
    fn compiled_digest_tracks_policy() {
        // Two different reviewed policies compile to different attested
        // digests — the "attest the compiled form" story.
        let p1 = compile(
            &Policy::filter(Pred::test(Field::Dst, 1)).seq(Policy::assign(Field::Port, 1)),
            "acl",
        )
        .unwrap();
        let p2 = compile(
            &Policy::filter(Pred::test(Field::Dst, 2)).seq(Policy::assign(Field::Port, 1)),
            "acl",
        )
        .unwrap();
        assert_ne!(p1.digest(), p2.digest());
    }

    #[test]
    fn translation_validation_accepts_honest_compiles() {
        let policies = [
            Policy::id(),
            Policy::drop(),
            Policy::filter(Pred::test(Field::Dst, 10)).seq(Policy::assign(Field::Port, 3)),
            Policy::assign(Field::Tag, 42).seq(Policy::assign(Field::Port, 1)),
            Policy::filter(Pred::test(Field::Proto, 6))
                .seq(Policy::assign(Field::Port, 1))
                .union(
                    Policy::filter(Pred::test(Field::Proto, 6).not())
                        .seq(Policy::assign(Field::Port, 2)),
                ),
            Policy::filter(Pred::test(Field::Dst, 7).not()).seq(Policy::assign(Field::Port, 9)),
        ];
        for p in &policies {
            compile_validated(p, "tv").unwrap_or_else(|e| panic!("{p}: {e}"));
        }
    }

    #[test]
    fn translation_validation_catches_tampering() {
        let p = Policy::filter(Pred::test(Field::Dst, 10)).seq(Policy::assign(Field::Port, 3));
        let mut prog = compile(&p, "tv").unwrap();
        // Miscompile: flip the matched class to drop.
        let table = &mut prog.stages[0].table;
        let idx = table
            .entries()
            .iter()
            .position(|e| e.action.name.starts_with("rewrite"))
            .expect("some class forwards");
        let mut tampered = Table::new(
            table.name.clone(),
            table.key.clone(),
            table.default_action.clone(),
        );
        for (i, e) in table.entries().iter().enumerate() {
            let mut e = e.clone();
            if i == idx {
                e.action = Action::drop_();
            }
            tampered.insert(e).unwrap();
        }
        *table = tampered;
        let err = validate(&p, &prog).unwrap_err();
        let CompileError::ValidationFailed { witness } = err else {
            panic!("expected ValidationFailed, got {err}");
        };
        // The witness genuinely distinguishes source from compiled form.
        let decoded = reconstruct(&prog).unwrap();
        assert_ne!(
            eval_packet(&p, witness),
            eval_packet(&decoded, witness),
            "witness must separate the two"
        );
    }

    #[test]
    fn reconstruct_respects_priority_order() {
        // Hand-built table where a broad low-priority entry is inserted
        // before a specific high-priority one: reconstruction must honor
        // lookup precedence, not insertion order.
        let mut table = Table::new(
            "prio_t0",
            vec![KeyCol {
                field: "ipv4.dst".into(),
                kind: MatchKind::Ternary,
            }],
            Action::drop_(),
        );
        table
            .insert(Entry {
                key: vec![KeyCell::Any],
                priority: 0,
                action: Action::fwd(1),
            })
            .unwrap();
        table
            .insert(Entry {
                key: vec![KeyCell::Ternary {
                    value: 9,
                    mask: u64::MAX,
                }],
                priority: 1,
                action: Action::fwd(2),
            })
            .unwrap();
        let prog = DataplaneProgram {
            name: "prio.p4".into(),
            version: "nk-1".into(),
            parser: standard_parser(),
            stages: vec![Stage { table }],
            registers: vec![],
        };
        let decoded = reconstruct(&prog).unwrap();
        let want = Policy::filter(Pred::test(Field::Dst, 9))
            .seq(Policy::assign(Field::Port, 2))
            .union(
                Policy::filter(Pred::test(Field::Dst, 9).not()).seq(Policy::assign(Field::Port, 1)),
            );
        assert!(
            pda_netkat::equiv::equivalent(&decoded, &want),
            "decoded {decoded}"
        );
    }

    #[test]
    fn unvalidatable_constructs_reported() {
        let mut table = Table::new(
            "lpm_t0",
            vec![KeyCol {
                field: "ipv4.dst".into(),
                kind: MatchKind::Lpm,
            }],
            Action::drop_(),
        );
        table
            .insert(Entry {
                key: vec![KeyCell::Lpm {
                    value: 0x0a000000,
                    prefix_len: 8,
                }],
                priority: 0,
                action: Action::fwd(1),
            })
            .unwrap();
        let prog = DataplaneProgram {
            name: "lpm.p4".into(),
            version: "nk-1".into(),
            parser: standard_parser(),
            stages: vec![Stage { table }],
            registers: vec![],
        };
        assert!(matches!(
            reconstruct(&prog),
            Err(CompileError::Unvalidatable(_))
        ));
    }

    #[test]
    fn fresh_class_handled() {
        // A value not mentioned anywhere must hit the wildcard entry.
        let p = Policy::filter(Pred::test(Field::Dst, 7).not()).seq(Policy::assign(Field::Port, 9));
        agree(&p, pkt(0, 7, 0, 0)); // mentioned → dropped
        agree(&p, pkt(0, 12345, 0, 0)); // fresh → forwarded
    }
}
