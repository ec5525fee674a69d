//! Partial evaluation of NetKAT policies: specialize a network-wide
//! policy to one switch by fixing `sw = k`, yielding the per-switch
//! slice that [`pda-hybrid`'s `nkcompile`] turns into a dataplane
//! program.
//!
//! `specialize(p, f, v)` rewrites `p` under the assumption that field
//! `f` currently equals `v`: tests on `f` reduce to `true`/`false`
//! (which then collapse conjunctions and unions), while a modification
//! of `f` invalidates the assumption for the continuation. A union arm
//! that reduces to drop is discarded, so it is not built first: inside
//! an arm, a sequence with an operand that reduces to drop is drop, and
//! the operands after it are only walked, building nothing, for whether
//! the assumption holds after them, which an enclosing sequence still
//! needs. A slice of a spine-leaf fabric thus builds its own rules and
//! none of the other switches'. Every walk here is plain structural
//! recursion: a `;` or `+` chain is one node whatever its length, so
//! the call depth follows the nesting of the policy, which the parser
//! bounds ([`crate::parser::MAX_NESTING`]). The soundness property —
//! `filter f=v ; p ≡ filter f=v ; specialize(p,f,v)` — is checked by
//! property test for the dup-free fragment, and can be
//! discharged per-slice with the symbolic engine: [`slice_equivalent`]
//! verifies it, [`verified_slice_for_switch`] refuses to return an
//! unverified slice, and [`slice_is_dead`] detects switches whose slice
//! drops every packet (unreachable slices — surfaced as PDA5xx analyzer
//! diagnostics when a compiled program carries dead rules).

use crate::ast::{Field, Policy, Pred};
use crate::sym::{self, Spp, SymError};

/// Specialize a predicate under the assumption `f = v`. Returns the
/// simplified predicate.
fn spec_pred(a: &Pred, f: Field, v: u32) -> Pred {
    match a {
        Pred::Test(g, w) if *g == f => {
            if *w == v {
                Pred::True
            } else {
                Pred::False
            }
        }
        Pred::True | Pred::False | Pred::Test(..) => a.clone(),
        Pred::And(xs) => spec_operands(xs, Pred::True, Pred::and, f, v),
        Pred::Or(xs) => spec_operands(xs, Pred::False, Pred::or, f, v),
        Pred::Not(x) => match spec_pred(x, f, v) {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            p => p.not(),
        },
    }
}

/// The operands of a conjunction or disjunction specialized and joined
/// again by `join`: an operand equal to the connective's `unit` goes,
/// and the other constant absorbs the whole.
fn spec_operands(xs: &[Pred], unit: Pred, join: fn(Pred, Pred) -> Pred, f: Field, v: u32) -> Pred {
    let mut kept = Vec::new();
    for x in xs {
        match spec_pred(x, f, v) {
            p if p == unit => {}
            p @ (Pred::True | Pred::False) => return p,
            p => kept.push(p),
        }
    }
    kept.into_iter().reduce(join).unwrap_or(unit)
}

/// Specialize `p` under the assumption `f = v`. The assumption holds
/// only until the first modification of `f` along each control path;
/// after that the policy is left untouched.
pub fn specialize(p: &Policy, f: Field, v: u32) -> Policy {
    go(p, f, v, false).0
}

/// `p` specialized, whether it is syntactically drop, and whether the
/// assumption still holds after it (None = may or may not, depending on
/// path). Reporting drop here keeps union-arm pruning O(1) per node.
/// `arm` marks a node inside a union arm, which the union discards if it
/// reduces to drop: there a sequence with a dead operand need not be
/// built.
fn go(p: &Policy, f: Field, v: u32, arm: bool) -> (Policy, bool, Option<bool>) {
    match p {
        Policy::Filter(a) => {
            let a = spec_pred(a, f, v);
            let dead = a == Pred::False;
            (Policy::Filter(a), dead, Some(true))
        }
        Policy::Mod(g, w) => (Policy::Mod(*g, *w), false, Some(*g != f || *w == v)),
        Policy::Dup => (Policy::Dup, false, Some(true)),
        Policy::Seq(ps) => {
            let (mut parts, mut dead, mut holds) = (Vec::new(), false, Some(true));
            let mut rest = ps.iter();
            // An operand is specialized only while the assumption holds.
            while holds == Some(true) {
                let Some(p) = rest.next() else { break };
                let (s, d, h) = go(p, f, v, arm);
                (dead, holds) = (dead || d, h);
                if arm && dead {
                    // The union discards it: only the assumption counts.
                    return (
                        Policy::drop(),
                        true,
                        holds_along(rest.as_slice(), holds, f, v),
                    );
                }
                parts.push(s);
            }
            let rest = rest.as_slice();
            dead = dead || rest.iter().any(is_drop);
            if arm && dead {
                return (Policy::drop(), true, holds);
            }
            parts.extend_from_slice(rest);
            let seq = parts.into_iter().reduce(Policy::seq);
            (seq.unwrap_or_else(Policy::id), dead, holds)
        }
        Policy::Union(ps) => {
            let arms: Vec<_> = ps.iter().map(|p| go(p, f, v, true)).collect();
            let holds = agree(arms.iter().map(|arm| arm.2));
            // Prune dead branches: `filter false ; …` arms vanish.
            let mut live = arms.into_iter().filter(|arm| !arm.1).map(|arm| arm.0);
            match live.next() {
                None => (Policy::drop(), true, holds),
                Some(first) => (live.fold(first, Policy::union), false, holds),
            }
        }
        Policy::Star(inner) => {
            // Inside a star the assumption can be broken by earlier
            // iterations, so only a star whose body preserves the
            // assumption may be specialized.
            let (is, _, ih) = go(inner, f, v, false);
            if ih == Some(true) {
                (is.star(), false, Some(true))
            } else {
                (p.clone(), false, None)
            }
        }
    }
}

/// Whether the assumption `f = v` still holds after `p`, as [`go`]
/// reports it for `p`, found without building anything. `None` (may or
/// may not) is absorbing: once a part of `p` that the answer depends on
/// gives it, so does `p`.
fn holds_after(p: &Policy, f: Field, v: u32) -> Option<bool> {
    match p {
        Policy::Mod(g, w) => Some(*g != f || *w == v),
        Policy::Filter(_) | Policy::Dup => Some(true),
        Policy::Seq(ps) => holds_along(ps, Some(true), f, v),
        Policy::Union(ps) => agree(ps.iter().map(|p| holds_after(p, f, v))),
        Policy::Star(inner) => (holds_after(inner, f, v) == Some(true)).then_some(true),
    }
}

/// Whether the assumption holds after `ps` in sequence, given whether it
/// holds before them: each operand gives the answer while it holds.
fn holds_along(ps: &[Policy], mut holds: Option<bool>, f: Field, v: u32) -> Option<bool> {
    for p in ps {
        if holds != Some(true) {
            break;
        }
        holds = holds_after(p, f, v);
    }
    holds
}

/// The answer the arms of a union agree on, if they do (`true` for no
/// arms: after drop the assumption holds of every packet there is).
fn agree(arms: impl Iterator<Item = Option<bool>>) -> Option<bool> {
    arms.reduce(|a, b| if a == b { a } else { None })
        .unwrap_or(Some(true))
}

/// Syntactic drop detection, for a sub-policy left unspecialized: a
/// sequence is drop if any operand is, a union if all are.
fn is_drop(p: &Policy) -> bool {
    match p {
        Policy::Filter(Pred::False) => true,
        Policy::Seq(ps) => ps.iter().any(is_drop),
        Policy::Union(ps) => ps.iter().all(is_drop),
        _ => false,
    }
}

/// The per-switch slice of a network policy: assume the packet is at
/// switch `sw` (the standard `in; (p;t)*` encoding dispatches on `sw`).
pub fn slice_for_switch(p: &Policy, sw: u32) -> Policy {
    specialize(p, Field::Switch, sw)
}

/// Symbolically verify the slice soundness property:
/// `filter f=v ; network ≡ filter f=v ; slice`, or
/// [`SymError::DupUnsupported`] when either policy contains `dup`. Both
/// sides are converted under the guard
/// ([`crate::equiv::counterexample_under`]), so the rules of other
/// switches are never built.
pub fn slice_equivalent(
    network: &Policy,
    slice: &Policy,
    f: Field,
    v: u32,
) -> Result<bool, SymError> {
    Ok(crate::equiv::counterexample_under(&Pred::test(f, v), network, slice)?.is_none())
}

/// [`slice_for_switch`] with the soundness property discharged by the
/// symbolic engine. If verification fails (or the policy contains `dup`,
/// which the checker cannot compare), the unspecialized policy — trivially
/// sound — is returned instead of an unverified slice.
pub fn verified_slice_for_switch(p: &Policy, sw: u32) -> Policy {
    let slice = slice_for_switch(p, sw);
    if slice_equivalent(p, &slice, Field::Switch, sw) == Ok(true) {
        slice
    } else {
        p.clone()
    }
}

/// Is the per-switch slice symbolically dead — does `filter sw=k ; p`
/// drop every packet? Dead slices indicate unreachable switches in the
/// network encoding (nothing the policy does at `sw` is observable).
pub fn slice_is_dead(p: &Policy, sw: u32) -> bool {
    sym::run(&[p], |s| {
        let g = s.arena().sp_from_pred(&Pred::test(Field::Switch, sw));
        // A live `dup` cannot be decided symbolically: assume live.
        s.transformer_under(g, 0) == Ok(Spp::ZERO)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::equivalent;

    fn guarded(sw: u32, port: u64) -> Policy {
        Policy::filter(Pred::test(Field::Switch, sw)).seq(Policy::assign(Field::Port, port as u32))
    }

    #[test]
    fn slice_selects_the_right_branch() {
        let network = guarded(1, 10).union(guarded(2, 20)).union(guarded(3, 30));
        let slice = slice_for_switch(&network, 2);
        // The slice must behave like filter sw=2 ; network.
        let reference = Policy::filter(Pred::test(Field::Switch, 2)).seq(network.clone());
        let guarded_slice = Policy::filter(Pred::test(Field::Switch, 2)).seq(slice.clone());
        assert!(equivalent(&reference, &guarded_slice));
        // And it is drastically smaller (dead branches pruned).
        assert!(slice.size() < network.size(), "{slice}");
    }

    #[test]
    fn modification_of_assumed_field_stops_specialization() {
        // sw := 5 ; filter sw = 1  — the test must NOT be reduced to
        // true/false using the stale assumption sw=1.
        let p = Policy::assign(Field::Switch, 5).seq(Policy::filter(Pred::test(Field::Switch, 1)));
        let s = specialize(&p, Field::Switch, 1);
        let reference = Policy::filter(Pred::test(Field::Switch, 1)).seq(p.clone());
        let guarded = Policy::filter(Pred::test(Field::Switch, 1)).seq(s);
        assert!(equivalent(&reference, &guarded));
        // The stale test survives (still drops everything after sw := 5).
        assert!(equivalent(&reference, &Policy::drop()));
    }

    #[test]
    fn reassignment_to_same_value_keeps_assumption() {
        let p = Policy::assign(Field::Switch, 1).seq(Policy::filter(Pred::test(Field::Switch, 1)));
        let s = specialize(&p, Field::Switch, 1);
        // Second test reduced to true.
        assert!(equivalent(&s, &Policy::assign(Field::Switch, 1)));
    }

    #[test]
    fn negations_and_disjunctions_simplify() {
        let a = Pred::test(Field::Switch, 3)
            .not()
            .or(Pred::test(Field::Dst, 9));
        let s = specialize(&Policy::Filter(a), Field::Switch, 3);
        // !(sw=3) is false under the assumption; survives as dst test.
        assert!(equivalent(&s, &Policy::filter(Pred::test(Field::Dst, 9))));
    }

    #[test]
    fn star_preserving_body_specializes() {
        let body = Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Tag, 7));
        let p = body.clone().star();
        let s = specialize(&p, Field::Switch, 1);
        let reference = Policy::filter(Pred::test(Field::Switch, 1)).seq(p);
        let guarded = Policy::filter(Pred::test(Field::Switch, 1)).seq(s);
        assert!(equivalent(&reference, &guarded));
    }

    #[test]
    fn slices_verify_symbolically() {
        let network = guarded(1, 10).union(guarded(2, 20)).union(guarded(3, 30));
        for sw in 0..4 {
            let slice = slice_for_switch(&network, sw);
            assert_eq!(
                slice_equivalent(&network, &slice, Field::Switch, sw),
                Ok(true)
            );
            assert_eq!(verified_slice_for_switch(&network, sw), slice);
        }
    }

    #[test]
    fn dead_slice_detected() {
        let network = guarded(1, 10).union(guarded(2, 20));
        assert!(!slice_is_dead(&network, 1));
        assert!(!slice_is_dead(&network, 2));
        // No rule matches switch 7: its slice drops everything.
        assert!(slice_is_dead(&network, 7));
        // A pure filter network keeps packets at the filtered switch: live.
        let filt = Policy::filter(Pred::test(Field::Switch, 7));
        assert!(!slice_is_dead(&filt, 7));
        assert!(slice_is_dead(&filt, 8));
    }

    #[test]
    fn dead_slice_decided_past_a_dead_dup() {
        // Only switch 1's rule has a dup; no other slice check reaches it.
        let network = Policy::filter(Pred::test(Field::Switch, 1))
            .seq(Policy::Dup)
            .union(guarded(2, 20));
        assert!(!slice_is_dead(&network, 2));
        assert!(slice_is_dead(&network, 3));
        // At switch 1 the dup is live: undecided symbolically, so live.
        assert!(!slice_is_dead(&network, 1));
    }

    #[test]
    fn fabric_slices_are_pinned() {
        let network = crate::corpus::fabric_step(8);
        let up = Policy::id()
            .seq(Policy::assign(Field::Port, 1))
            .seq(Policy::assign(Field::Switch, 0));
        for leaf in 1..=9 {
            assert_eq!(slice_for_switch(&network, leaf), up, "leaf {leaf}");
        }
        let down = Policy::any((1..=8).map(|j| {
            Policy::filter(Pred::test(Field::Dst, j))
                .seq(Policy::assign(Field::Switch, j))
                .seq(Policy::assign(Field::Port, 2))
        }));
        assert_eq!(slice_for_switch(&network, 0), Policy::id().seq(down));
    }

    /// Slicing the 40,000-term `+` chain, `;` chain and `|` filter of
    /// `ast`'s chain test, and the `;` chain behind `sw := 2`, fits a
    /// 2 MiB stack, also in a debug build. None tests `sw`, so each
    /// slice is its chain.
    #[test]
    fn deep_chains_slice_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rule = |v| Policy::assign(Field::Port, v);
                let test = |v| Pred::test(Field::Dst, v);
                let seq = (1..40_000).map(rule).fold(rule(0), Policy::seq);
                let chains = [
                    Policy::any((0..40_000).map(rule)),
                    Policy::assign(Field::Switch, 2).seq(seq.clone()),
                    seq,
                    Policy::filter((1..40_000).map(test).fold(test(0), Pred::or)),
                ];
                for chain in &chains {
                    assert_eq!(slice_for_switch(chain, 1), *chain);
                }
            })
            .expect("spawn")
            .join()
            .expect("slices fit the stack");
    }

    #[test]
    fn star_breaking_body_left_alone() {
        // Body rewrites sw: the loop may re-enter with other values.
        let body =
            Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let p = body.star();
        let s = specialize(&p, Field::Switch, 1);
        assert_eq!(s, p, "assumption-breaking star is untouched");
    }
}
