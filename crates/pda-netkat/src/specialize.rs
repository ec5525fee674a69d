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
//! an arm, a sequence whose left side reduces to drop is drop, and its
//! right side is only walked, building nothing, for whether the
//! assumption holds after it, which an enclosing sequence still needs.
//! A slice of a spine-leaf fabric thus builds its own rules and none of
//! the other switches'. Its walks keep their stacks on the heap, so a
//! `;` or `+` chain of any length costs no call depth; only a part left
//! unspecialized is copied with the derived `Clone`, which recurses. The
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
    /// A node to simplify, or a connective whose simplified operands
    /// are on top of `done`.
    enum Task<'a> {
        Visit(&'a Pred),
        And,
        Or,
        Not,
    }
    let mut tasks = vec![Task::Visit(a)];
    let mut done = Vec::new();
    while let Some(task) = tasks.pop() {
        let simplified = match task {
            Task::Visit(a) => match a {
                Pred::Test(g, w) if *g == f => {
                    if *w == v {
                        Pred::True
                    } else {
                        Pred::False
                    }
                }
                Pred::True | Pred::False | Pred::Test(..) => a.clone(),
                Pred::And(l, r) => {
                    tasks.extend([Task::And, Task::Visit(r), Task::Visit(l)]);
                    continue;
                }
                Pred::Or(l, r) => {
                    tasks.extend([Task::Or, Task::Visit(r), Task::Visit(l)]);
                    continue;
                }
                Pred::Not(x) => {
                    tasks.extend([Task::Not, Task::Visit(x)]);
                    continue;
                }
            },
            Task::Not => match done.pop().expect("an operand") {
                Pred::True => Pred::False,
                Pred::False => Pred::True,
                p => p.not(),
            },
            Task::And | Task::Or => {
                let q = done.pop().expect("a right operand");
                let p = done.pop().expect("a left operand");
                if matches!(task, Task::And) {
                    match (p, q) {
                        (Pred::False, _) | (_, Pred::False) => Pred::False,
                        (Pred::True, q) => q,
                        (p, Pred::True) => p,
                        (p, q) => p.and(q),
                    }
                } else {
                    match (p, q) {
                        (Pred::True, _) | (_, Pred::True) => Pred::True,
                        (Pred::False, q) => q,
                        (p, Pred::False) => p,
                        (p, q) => p.or(q),
                    }
                }
            }
        };
        done.push(simplified);
    }
    done.pop().expect("the predicate")
}

/// Specialize `p` under the assumption `f = v`. The assumption holds
/// only until the first modification of `f` along each control path;
/// after that the policy is left untouched.
pub fn specialize(p: &Policy, f: Field, v: u32) -> Policy {
    /// A node to specialize, or a node whose specialized children are
    /// on top of `done`. `arm` marks a node inside a union arm, which
    /// the union discards if it reduces to drop: there a sequence with a
    /// dead side need not be built.
    enum Task<'a> {
        Visit(&'a Policy, bool),
        /// `l ; r` with `l` done.
        SeqLeft(&'a Policy, bool),
        /// `l ; r` with both sides done.
        SeqRight,
        Union,
        Star(&'a Policy),
    }
    // Each done node comes with whether it is syntactically drop and
    // whether the assumption still holds after it (None = may or may
    // not, depending on path). Reporting drop here keeps union-arm
    // pruning O(1) per node.
    let mut tasks = vec![Task::Visit(p, false)];
    let mut done: Vec<(Policy, bool, Option<bool>)> = Vec::new();
    while let Some(task) = tasks.pop() {
        let specialized = match task {
            Task::Visit(p, arm) => match p {
                Policy::Filter(a) => {
                    let a = spec_pred(a, f, v);
                    let dead = a == Pred::False;
                    (Policy::Filter(a), dead, Some(true))
                }
                Policy::Mod(g, w) => (Policy::Mod(*g, *w), false, Some(*g != f || *w == v)),
                Policy::Dup => (Policy::Dup, false, Some(true)),
                Policy::Seq(l, r) => {
                    tasks.extend([Task::SeqLeft(r, arm), Task::Visit(l, arm)]);
                    continue;
                }
                Policy::Union(l, r) => {
                    tasks.extend([Task::Union, Task::Visit(r, true), Task::Visit(l, true)]);
                    continue;
                }
                Policy::Star(inner) => {
                    tasks.extend([Task::Star(p), Task::Visit(inner, false)]);
                    continue;
                }
            },
            Task::SeqLeft(r, arm) => {
                let &(_, ldead, lholds) = done.last().expect("a left side");
                // `r` is specialized only while the assumption holds.
                let goes_on = lholds == Some(true);
                let dead = ldead || (!goes_on && is_drop(r));
                if arm && dead {
                    // The union discards it: only the assumption counts.
                    done.pop();
                    let holds = if goes_on {
                        holds_after(r, f, v)
                    } else {
                        lholds
                    };
                    (Policy::drop(), true, holds)
                } else if goes_on {
                    tasks.extend([Task::SeqRight, Task::Visit(r, arm)]);
                    continue;
                } else {
                    let (ls, _, _) = done.pop().expect("a left side");
                    (ls.seq(r.clone()), dead, lholds)
                }
            }
            Task::SeqRight => {
                let (rs, rdead, rholds) = done.pop().expect("a right side");
                let (ls, ldead, _) = done.pop().expect("a left side");
                (ls.seq(rs), ldead || rdead, rholds)
            }
            Task::Union => {
                let (rs, rdead, rh) = done.pop().expect("a right arm");
                let (ls, ldead, lh) = done.pop().expect("a left arm");
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
            Task::Star(p) => {
                // Inside a star the assumption can be broken by earlier
                // iterations, so only a star whose body preserves the
                // assumption may be specialized.
                let (is, _, ih) = done.pop().expect("a body");
                if ih == Some(true) {
                    (is.star(), false, Some(true))
                } else {
                    (p.clone(), false, None)
                }
            }
        };
        done.push(specialized);
    }
    done.pop().expect("the specialized policy").0
}

/// Whether the assumption `f = v` still holds after `p`, as
/// [`specialize`] reports it for `p`, found without building anything.
/// `None` (may or may not) is absorbing: once a part of `p` that the
/// answer depends on gives it, so does `p`.
fn holds_after(p: &Policy, f: Field, v: u32) -> Option<bool> {
    /// What to do with the answer for a node's left part.
    enum Then<'a> {
        /// `_ ; r`: if it holds, `r` gives the answer.
        Seq(&'a Policy),
        /// `_ + r`: `r` must agree.
        Union(&'a Policy),
        /// `l + _`, where `l` gave this answer.
        Agree(bool),
        /// `_*`: holds if the body keeps it.
        Star,
    }
    let mut stack = Vec::new();
    let mut p = p;
    loop {
        // Down the left parts to a leaf ...
        let holds = loop {
            p = match p {
                Policy::Seq(l, r) => {
                    stack.push(Then::Seq(r));
                    l
                }
                Policy::Union(l, r) => {
                    stack.push(Then::Union(r));
                    l
                }
                Policy::Star(inner) => {
                    stack.push(Then::Star);
                    inner
                }
                Policy::Mod(g, w) => break *g != f || *w == v,
                Policy::Filter(_) | Policy::Dup => break true,
            };
        };
        // ... and up to the next right part the answer depends on.
        p = loop {
            match stack.pop() {
                None => return Some(holds),
                Some(Then::Seq(r)) if holds => break r,
                Some(Then::Union(r)) => {
                    stack.push(Then::Agree(holds));
                    break r;
                }
                Some(Then::Agree(a)) if a != holds => return None,
                Some(Then::Star) if !holds => return None,
                Some(Then::Seq(_) | Then::Agree(_) | Then::Star) => {}
            }
        };
    }
}

/// Syntactic drop detection, for a sub-policy left unspecialized: a
/// sequence is drop if either side is, a union if both are.
fn is_drop(p: &Policy) -> bool {
    // Right sides still to look at, each with the answer for its left
    // side that makes the node's answer the right side's: false for a
    // sequence, true for a union.
    let mut stack = Vec::new();
    let mut p = p;
    loop {
        let dead = loop {
            p = match p {
                Policy::Seq(l, r) => {
                    stack.push((r, false));
                    l
                }
                Policy::Union(l, r) => {
                    stack.push((r, true));
                    l
                }
                Policy::Filter(Pred::False) => break true,
                _ => break false,
            };
        };
        p = loop {
            match stack.pop() {
                None => return dead,
                Some((r, open)) if open == dead => break r,
                Some(_) => {}
            }
        };
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

    /// `a == b` for chains nested on the left, walked down the left
    /// spine: the derived `PartialEq` recurses once per link.
    fn same_chain(mut a: &Policy, mut b: &Policy) -> bool {
        while let (Policy::Union(a1, a2), Policy::Union(b1, b2))
        | (Policy::Seq(a1, a2), Policy::Seq(b1, b2)) = (a, b)
        {
            if a2 != b2 {
                return false;
            }
            (a, b) = (a1, b1);
        }
        let (Policy::Filter(x), Policy::Filter(y)) = (a, b) else {
            return a == b;
        };
        let (mut x, mut y) = (x, y);
        while let (Pred::Or(x1, x2), Pred::Or(y1, y2)) = (x, y) {
            if x2 != y2 {
                return false;
            }
            (x, y) = (x1, y1);
        }
        x == y
    }

    /// Slicing the 40,000-term `+` chain, `;` chain and `|` filter of
    /// `ast`'s drop test fits a 2 MiB stack, also in a debug build. None
    /// mentions `sw`, so each slice is its chain.
    #[test]
    fn deep_chains_slice_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rule = |v| Policy::assign(Field::Port, v);
                let test = |v| Pred::test(Field::Dst, v);
                let chains = [
                    Policy::any((0..40_000).map(rule)),
                    (1..40_000).map(rule).fold(rule(0), Policy::seq),
                    Policy::filter((1..40_000).map(test).fold(test(0), Pred::or)),
                ];
                for chain in &chains {
                    assert!(same_chain(&slice_for_switch(chain, 1), chain));
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
