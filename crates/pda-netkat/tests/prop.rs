//! Property-based tests for NetKAT: the Kleene-algebra-with-tests
//! axioms checked semantically over random dup-free policies, plus
//! parser round-trips.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::equiv::equivalent;
use pda_netkat::parser::{parse_policy, parse_pred};
use pda_netkat::semantics::{eval_packet, eval_set};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn field() -> impl Strategy<Value = Field> {
    prop_oneof![
        Just(Field::Switch),
        Just(Field::Port),
        Just(Field::Src),
        Just(Field::Dst),
        Just(Field::Proto),
        Just(Field::Tag),
    ]
}

fn pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::True),
        Just(Pred::False),
        (field(), 0u32..4).prop_map(|(f, v)| Pred::Test(f, v)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random dup-free policies over a small value domain (keeps the
/// finite-model equivalence check fast).
fn policy() -> impl Strategy<Value = Policy> {
    let leaf = prop_oneof![
        pred().prop_map(Policy::Filter),
        (field(), 0u32..4).prop_map(|(f, v)| Policy::Mod(f, v)),
    ];
    leaf.prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.union(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            inner.prop_map(|p| p.star()),
        ]
    })
}

fn pkt() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(0u32..4, 6).prop_map(|v| {
        let mut p = Packet::zero();
        for (i, f) in Field::ALL.into_iter().enumerate() {
            p = p.with(f, v[i]);
        }
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- KAT axioms, checked with the semantic decision procedure ----

    #[test]
    fn union_comm_assoc_idem(p in policy(), q in policy(), r in policy()) {
        prop_assert!(equivalent(&p.clone().union(q.clone()), &q.clone().union(p.clone())));
        prop_assert!(equivalent(
            &p.clone().union(q.clone()).union(r.clone()),
            &p.clone().union(q.clone().union(r.clone()))
        ));
        prop_assert!(equivalent(&p.clone().union(p.clone()), &p));
    }

    #[test]
    fn seq_assoc_and_identities(p in policy(), q in policy(), r in policy()) {
        prop_assert!(equivalent(
            &p.clone().seq(q.clone()).seq(r.clone()),
            &p.clone().seq(q.clone().seq(r.clone()))
        ));
        prop_assert!(equivalent(&Policy::id().seq(p.clone()), &p));
        prop_assert!(equivalent(&p.clone().seq(Policy::id()), &p));
        prop_assert!(equivalent(&Policy::drop().seq(p.clone()), &Policy::drop()));
        prop_assert!(equivalent(&p.seq(Policy::drop()), &Policy::drop()));
    }

    #[test]
    fn distributivity(p in policy(), q in policy(), r in policy()) {
        prop_assert!(equivalent(
            &p.clone().union(q.clone()).seq(r.clone()),
            &p.clone().seq(r.clone()).union(q.clone().seq(r.clone()))
        ));
        prop_assert!(equivalent(
            &r.clone().seq(p.clone().union(q.clone())),
            &r.clone().seq(p).union(r.seq(q))
        ));
    }

    #[test]
    fn star_unrolling_and_idempotence(p in policy()) {
        let star = p.clone().star();
        // p* = id + p ; p*
        prop_assert!(equivalent(
            &star,
            &Policy::id().union(p.clone().seq(star.clone()))
        ));
        // (p*)* = p*
        prop_assert!(equivalent(&star.clone().star(), &star));
    }

    #[test]
    fn filter_is_idempotent(a in pred()) {
        let f = Policy::Filter(a);
        prop_assert!(equivalent(&f.clone().seq(f.clone()), &f));
    }

    #[test]
    fn mod_then_matching_test_absorbed(f in field(), v in 0u32..4) {
        let lhs = Policy::assign(f, v).seq(Policy::filter(Pred::test(f, v)));
        prop_assert!(equivalent(&lhs, &Policy::assign(f, v)));
    }

    #[test]
    fn double_negation(a in pred()) {
        prop_assert!(equivalent(
            &Policy::Filter(a.clone().not().not()),
            &Policy::Filter(a)
        ));
    }

    // ---- semantic sanity ----

    /// Output of any policy on a packet set is monotone in the input set.
    #[test]
    fn eval_monotone(p in policy(), a in pkt(), b in pkt()) {
        let small = BTreeSet::from([a]);
        let big = BTreeSet::from([a, b]);
        let out_small = eval_set(&p, &small);
        let out_big = eval_set(&p, &big);
        prop_assert!(out_small.is_subset(&out_big));
    }

    /// Union's output is exactly the union of the branches' outputs.
    #[test]
    fn union_semantics(p in policy(), q in policy(), x in pkt()) {
        let lhs = eval_packet(&p.clone().union(q.clone()), x);
        let mut rhs = eval_packet(&p, x);
        rhs.extend(eval_packet(&q, x));
        prop_assert_eq!(lhs, rhs);
    }

    /// Display → parse round-trips semantically.
    #[test]
    fn display_parse_round_trip(p in policy()) {
        let printed = p.to_string();
        let reparsed = parse_policy(&printed)
            .unwrap_or_else(|e| panic!("`{printed}` failed: {e}"));
        prop_assert!(equivalent(&p, &reparsed), "{printed}");
    }

    /// Filters never invent packets.
    #[test]
    fn filters_shrink(a in pred(), x in pkt()) {
        let out = eval_packet(&Policy::Filter(a), x);
        prop_assert!(out.len() <= 1);
        if let Some(y) = out.iter().next() {
            prop_assert_eq!(*y, x);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Specialization soundness: `filter f=v ; p ≡ filter f=v ; specialize(p,f,v)`.
    #[test]
    fn specialize_sound(p in policy(), f in field(), v in 0u32..4) {
        let s = pda_netkat::specialize::specialize(&p, f, v);
        let guard = Policy::filter(Pred::Test(f, v));
        prop_assert!(
            equivalent(&guard.clone().seq(p.clone()), &guard.seq(s.clone())),
            "p = {p}, specialized = {s}"
        );
    }

    /// Specialization never grows the policy.
    #[test]
    fn specialize_never_grows(p in policy(), f in field(), v in 0u32..4) {
        let s = pda_netkat::specialize::specialize(&p, f, v);
        prop_assert!(s.size() <= p.size(), "{p} grew to {s}");
    }
}

/// The recursive `specialize` that specializes every operand and then
/// drops the dead arms of each union: the reference that the slicer,
/// which skips building what a union discards, must match node for
/// node.
mod reference {
    use pda_netkat::ast::{Field, Policy, Pred};

    fn spec_pred(a: &Pred, f: Field, v: u32) -> Pred {
        match a {
            Pred::True => Pred::True,
            Pred::False => Pred::False,
            Pred::Test(g, w) if *g == f => {
                if *w == v {
                    Pred::True
                } else {
                    Pred::False
                }
            }
            Pred::Test(g, w) => Pred::Test(*g, *w),
            Pred::And(xs) => {
                let xs: Vec<Pred> = xs.iter().map(|x| spec_pred(x, f, v)).collect();
                if xs.contains(&Pred::False) {
                    return Pred::False;
                }
                let kept = xs.into_iter().filter(|x| *x != Pred::True);
                kept.reduce(Pred::and).unwrap_or(Pred::True)
            }
            Pred::Or(xs) => {
                let xs: Vec<Pred> = xs.iter().map(|x| spec_pred(x, f, v)).collect();
                if xs.contains(&Pred::True) {
                    return Pred::True;
                }
                let kept = xs.into_iter().filter(|x| *x != Pred::False);
                kept.reduce(Pred::or).unwrap_or(Pred::False)
            }
            Pred::Not(x) => match spec_pred(x, f, v) {
                Pred::True => Pred::False,
                Pred::False => Pred::True,
                p => p.not(),
            },
        }
    }

    pub(super) fn specialize(p: &Policy, f: Field, v: u32) -> Policy {
        // (specialized policy, syntactically drop, assumption holds after).
        fn go(p: &Policy, f: Field, v: u32) -> (Policy, bool, Option<bool>) {
            match p {
                Policy::Filter(a) => {
                    let a = spec_pred(a, f, v);
                    let dead = a == Pred::False;
                    (Policy::Filter(a), dead, Some(true))
                }
                Policy::Mod(g, w) if *g == f => (Policy::Mod(*g, *w), false, Some(*w == v)),
                Policy::Mod(g, w) => (Policy::Mod(*g, *w), false, Some(true)),
                Policy::Dup => (Policy::Dup, false, Some(true)),
                Policy::Seq(ps) => {
                    // Operands are specialized up to the first after which
                    // the assumption may fail; the rest are copied.
                    let (mut out, mut dead, mut holds) = (Policy::id(), false, Some(true));
                    for (i, q) in ps.iter().enumerate() {
                        if holds != Some(true) {
                            let rest = &ps[i..];
                            dead = dead || rest.iter().any(is_drop);
                            out = rest.iter().cloned().fold(out, Policy::seq);
                            break;
                        }
                        let (qs, qdead, qholds) = go(q, f, v);
                        out = if i == 0 { qs } else { out.seq(qs) };
                        (dead, holds) = (dead || qdead, qholds);
                    }
                    (out, dead, holds)
                }
                Policy::Union(ps) => {
                    let arms: Vec<_> = ps.iter().map(|q| go(q, f, v)).collect();
                    let mut holds = arms[0].2;
                    for arm in &arms[1..] {
                        if arm.2 != holds {
                            holds = None;
                        }
                    }
                    let live: Vec<Policy> = arms
                        .into_iter()
                        .filter(|arm| !arm.1)
                        .map(|arm| arm.0)
                        .collect();
                    let dead = live.is_empty();
                    (Policy::any(live), dead, holds)
                }
                Policy::Star(inner) => {
                    let (is, _, ih) = go(inner, f, v);
                    if ih == Some(true) {
                        (is.star(), false, Some(true))
                    } else {
                        (p.clone(), false, None)
                    }
                }
            }
        }
        go(p, f, v).0
    }

    fn is_drop(p: &Policy) -> bool {
        match p {
            Policy::Filter(Pred::False) => true,
            Policy::Seq(ps) => ps.iter().any(is_drop),
            Policy::Union(ps) => ps.iter().all(is_drop),
            _ => false,
        }
    }
}

/// Three fields over three values: a test of the assumed field often
/// fails, so union arms often reduce to drop.
fn slice_field() -> impl Strategy<Value = Field> {
    prop_oneof![Just(Field::Switch), Just(Field::Port), Just(Field::Dst)]
}

fn slice_pred() -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::True),
        Just(Pred::False),
        (slice_field(), 0u32..3).prop_map(|(f, v)| Pred::Test(f, v)),
    ];
    leaf.prop_recursive(2, 6, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Policies up to six levels deep, with `dup` and star. A node is a
/// leaf one time in five, and one kind of node is a guarded rule
/// `filter a ; p`, as a fabric's are, so a dead rule inside a union is
/// common.
fn slice_policy() -> impl Strategy<Value = Policy> {
    let leaf = prop_oneof![
        slice_pred().prop_map(Policy::Filter),
        (slice_field(), 0u32..3).prop_map(|(f, v)| Policy::Mod(f, v)),
        Just(Policy::Dup),
    ]
    .boxed();
    let mut p = leaf.clone();
    for _ in 0..6 {
        let inner = p;
        p = prop_oneof![
            leaf.clone(),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.union(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            (slice_pred(), inner.clone()).prop_map(|(a, p)| Policy::filter(a).seq(p)),
            inner.prop_map(|p| p.star()),
        ]
        .boxed();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// The slicer returns the reference's policy, dead arms and all the
    /// assumption bookkeeping around them included.
    #[test]
    fn specialize_matches_the_reference(p in slice_policy(), f in slice_field(), v in 0u32..3) {
        let s = pda_netkat::specialize::specialize(&p, f, v);
        prop_assert_eq!(s, reference::specialize(&p, f, v), "p = {}", p);
    }
}

/// Arbitrary text for the parser: runs of printable ASCII, NetKAT
/// tokens, line breaks and multi-byte characters, in any order. U+0085
/// and U+00A0 are among them because their UTF-8 continuation bytes
/// are whitespace when read as Latin-1.
fn text() -> impl Strategy<Value = String> {
    let tokens: Vec<&str> =
        "+ ; * ! & | ( ) := = filter dup id drop true false sw pt dst 4294967296 7"
            .split(' ')
            .collect();
    let fragment = prop_oneof![
        "[ -~]{1,4}",
        (0..tokens.len()).prop_map(move |i| tokens[i].to_string()),
        "[\n\té▶☃\u{85}\u{a0}𝄞]",
    ];
    proptest::collection::vec(fragment, 0..24).prop_map(|parts| parts.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Neither entry point panics on arbitrary text.
    #[test]
    fn parsers_never_panic_on_arbitrary_text(src in text()) {
        let _ = parse_policy(&src);
        let _ = parse_pred(&src);
    }
}
