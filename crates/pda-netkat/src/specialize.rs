//! Partial evaluation of NetKAT policies: specialize a network-wide
//! policy to one switch by fixing `sw = k`, yielding the per-switch
//! slice that [`pda-hybrid`'s `nkcompile`] turns into a dataplane
//! program.
//!
//! `specialize(p, f, v)` rewrites `p` under the assumption that field
//! `f` currently equals `v`: tests on `f` reduce to `true`/`false`
//! (which then collapse conjunctions and unions), while a modification
//! of `f` invalidates the assumption for the continuation. The
//! soundness property — `filter f=v ; p ≡ filter f=v ; specialize(p,f,v)`
//! — is checked by property test for the dup-free fragment, and can be
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
        Pred::And(l, r) => match (spec_pred(l, f, v), spec_pred(r, f, v)) {
            (Pred::False, _) | (_, Pred::False) => Pred::False,
            (Pred::True, q) => q,
            (p, Pred::True) => p,
            (p, q) => p.and(q),
        },
        Pred::Or(l, r) => match (spec_pred(l, f, v), spec_pred(r, f, v)) {
            (Pred::True, _) | (_, Pred::True) => Pred::True,
            (Pred::False, q) => q,
            (p, Pred::False) => p,
            (p, q) => p.or(q),
        },
        Pred::Not(x) => match spec_pred(x, f, v) {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            p => p.not(),
        },
    }
}

/// Specialize `p` under the assumption `f = v`. The assumption holds
/// only until the first modification of `f` along each control path;
/// after that the policy is left untouched.
pub fn specialize(p: &Policy, f: Field, v: u32) -> Policy {
    // Returns (specialized policy, whether it is syntactically drop,
    // whether the assumption still holds afterwards — None = may or may
    // not, depending on path). Reporting drop here keeps union-arm
    // pruning O(1) per node.
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
            Policy::Seq(l, r) => {
                let (ls, ldead, lholds) = go(l, f, v);
                match lholds {
                    Some(true) => {
                        let (rs, rdead, rholds) = go(r, f, v);
                        (ls.seq(rs), ldead || rdead, rholds)
                    }
                    _ => (ls.seq(r.as_ref().clone()), ldead || is_drop(r), lholds),
                }
            }
            Policy::Union(l, r) => {
                let (ls, ldead, lh) = go(l, f, v);
                let (rs, rdead, rh) = go(r, f, v);
                let holds = match (lh, rh) {
                    (Some(a), Some(b)) if a == b => Some(a),
                    _ => None,
                };
                // Prune dead branches: `filter false ; …` arms vanish.
                match (ldead, rdead) {
                    (true, true) => (Policy::drop(), true, holds),
                    (true, false) => (rs, false, holds),
                    (false, true) => (ls, false, holds),
                    (false, false) => (ls.union(rs), false, holds),
                }
            }
            Policy::Star(inner) => {
                // Inside a star the assumption can be broken by earlier
                // iterations, so only a star whose body preserves the
                // assumption may be specialized.
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

/// Syntactic drop detection, for a sub-policy left unspecialized.
fn is_drop(p: &Policy) -> bool {
    match p {
        Policy::Filter(Pred::False) => true,
        Policy::Seq(l, r) => is_drop(l) || is_drop(r),
        Policy::Union(l, r) => is_drop(l) && is_drop(r),
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
