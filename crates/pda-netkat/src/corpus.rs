//! Builtin policy corpus: named policy pairs with known equivalence
//! verdicts, plus the synthetic spine–leaf fabric family used by the E19
//! scaling experiment (`harness e19`) and the `pdabench` `verify`
//! workload.
//!
//! `pda netkat equiv --check` runs every pair through the symbolic
//! decision procedure and fails on any verdict mismatch, and the test
//! `corpus_verdicts_hold_on_both_backends` checks the pairs against the
//! enumerative oracle too; the CI `netkat` job runs both on every push.

use crate::ast::{Field, Policy, Pred};

/// One corpus entry: two policies and their known equivalence verdict.
pub struct PolicyPair {
    /// Stable corpus name (used by `pda netkat equiv --check` output).
    pub name: &'static str,
    /// Left policy.
    pub p: Policy,
    /// Right policy.
    pub q: Policy,
    /// Whether `p ≡ q`.
    pub equivalent: bool,
}

/// A spine–leaf fabric step policy over `n` leaf switches.
///
/// Switch `0` is the spine; switches `1..=n` are leaves. A packet at a
/// leaf is forwarded up (`pt := 1; sw := 0`); a packet at the spine is
/// forwarded down to the leaf named by its `dst` field (`sw := dst;
/// pt := 2`). The network closure `step*` therefore connects any leaf to
/// any destination leaf in two hops.
pub fn fabric_step(n: u32) -> Policy {
    let up = Policy::filter(Pred::test(Field::Switch, 0).not())
        .seq(Policy::assign(Field::Port, 1))
        .seq(Policy::assign(Field::Switch, 0));
    let down = Policy::filter(Pred::test(Field::Switch, 0)).seq(Policy::any((1..=n).map(|j| {
        Policy::filter(Pred::test(Field::Dst, j))
            .seq(Policy::assign(Field::Switch, j))
            .seq(Policy::assign(Field::Port, 2))
    })));
    up.union(down)
}

/// The same fabric as [`fabric_step`] written differently: down-rules in
/// reverse order, a duplicated `dst = 1` clause, a contradictory (dead)
/// clause, and the up-path assignments swapped. Semantically equivalent —
/// the symbolic backend canonicalizes both to the same node.
pub fn fabric_step_redundant(n: u32) -> Policy {
    let up = Policy::filter(Pred::test(Field::Switch, 0).not())
        .seq(Policy::assign(Field::Switch, 0))
        .seq(Policy::assign(Field::Port, 1));
    let mut rules: Vec<Policy> = (1..=n)
        .rev()
        .map(|j| {
            Policy::filter(Pred::test(Field::Dst, j))
                .seq(Policy::assign(Field::Switch, j))
                .seq(Policy::assign(Field::Port, 2))
        })
        .collect();
    // Redundant copy of the dst=1 rule and a dead (contradictory) rule.
    rules.push(
        Policy::filter(Pred::test(Field::Dst, 1))
            .seq(Policy::assign(Field::Switch, 1))
            .seq(Policy::assign(Field::Port, 2)),
    );
    rules.push(
        Policy::filter(Pred::test(Field::Dst, 1).and(Pred::test(Field::Dst, 1).not()))
            .seq(Policy::assign(Field::Port, 99)),
    );
    let down = Policy::filter(Pred::test(Field::Switch, 0)).seq(Policy::any(rules));
    up.union(down)
}

/// A subtly broken variant of [`fabric_step`]: leaf `n`'s down-rule sends
/// traffic out the wrong port. Not equivalent to the clean fabric.
pub fn fabric_step_broken(n: u32) -> Policy {
    let up = Policy::filter(Pred::test(Field::Switch, 0).not())
        .seq(Policy::assign(Field::Port, 1))
        .seq(Policy::assign(Field::Switch, 0));
    let down = Policy::filter(Pred::test(Field::Switch, 0)).seq(Policy::any((1..=n).map(|j| {
        let pt = if j == n { 3 } else { 2 };
        Policy::filter(Pred::test(Field::Dst, j))
            .seq(Policy::assign(Field::Switch, j))
            .seq(Policy::assign(Field::Port, pt))
    })));
    up.union(down)
}

fn f(p: Pred) -> Policy {
    Policy::filter(p)
}

/// The builtin corpus of policy pairs with known verdicts.
pub fn policy_pairs() -> Vec<PolicyPair> {
    let p = Policy::assign(Field::Port, 1);
    let q = f(Pred::test(Field::Switch, 2));
    let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
    let star = step.clone().star();
    vec![
        PolicyPair {
            name: "union-commutes",
            p: p.clone().union(q.clone()),
            q: q.clone().union(p.clone()),
            equivalent: true,
        },
        PolicyPair {
            name: "union-idempotent",
            p: p.clone().union(p.clone()),
            q: p.clone(),
            equivalent: true,
        },
        PolicyPair {
            name: "seq-identity",
            p: Policy::id().seq(p.clone()),
            q: p.clone(),
            equivalent: true,
        },
        PolicyPair {
            name: "seq-annihilator",
            p: Policy::drop().seq(p.clone()),
            q: Policy::drop(),
            equivalent: true,
        },
        PolicyPair {
            name: "mod-then-test-absorbs",
            p: Policy::assign(Field::Dst, 5).seq(f(Pred::test(Field::Dst, 5))),
            q: Policy::assign(Field::Dst, 5),
            equivalent: true,
        },
        PolicyPair {
            name: "star-unrolling",
            p: star.clone(),
            q: Policy::id().union(step.clone().seq(star)),
            equivalent: true,
        },
        PolicyPair {
            name: "negation-vs-other-constant",
            p: f(Pred::test(Field::Src, 1).not()),
            q: f(Pred::test(Field::Src, 2)),
            equivalent: false,
        },
        PolicyPair {
            name: "distinct-mods-differ",
            p: Policy::assign(Field::Port, 1),
            q: Policy::assign(Field::Port, 2),
            equivalent: false,
        },
        PolicyPair {
            name: "fabric-4-redundant",
            p: fabric_step(4),
            q: fabric_step_redundant(4),
            equivalent: true,
        },
        PolicyPair {
            name: "fabric-8-redundant",
            p: fabric_step(8),
            q: fabric_step_redundant(8),
            equivalent: true,
        },
        PolicyPair {
            name: "fabric-4-broken",
            p: fabric_step(4),
            q: fabric_step_broken(4),
            equivalent: false,
        },
        PolicyPair {
            name: "fabric-4-closure",
            p: fabric_step(4).star(),
            q: fabric_step_redundant(4).star(),
            equivalent: true,
        },
        PolicyPair {
            name: "filters-commute",
            p: f(Pred::test(Field::Src, 1)).seq(f(Pred::test(Field::Dst, 2))),
            q: f(Pred::test(Field::Dst, 2)).seq(f(Pred::test(Field::Src, 1))),
            equivalent: true,
        },
        PolicyPair {
            name: "dead-branch-pruned",
            p: f(Pred::test(Field::Proto, 6))
                .seq(f(Pred::test(Field::Proto, 6).not()))
                .union(Policy::assign(Field::Tag, 1)),
            q: Policy::assign(Field::Tag, 1),
            equivalent: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::{equivalent, equivalent_enumerative};

    #[test]
    fn corpus_verdicts_hold_on_both_backends() {
        for pair in policy_pairs() {
            assert_eq!(
                equivalent(&pair.p, &pair.q),
                pair.equivalent,
                "symbolic verdict mismatch on {}",
                pair.name
            );
            assert_eq!(
                equivalent_enumerative(&pair.p, &pair.q),
                Ok(pair.equivalent),
                "enumerative verdict mismatch on {}",
                pair.name
            );
        }
    }

    #[test]
    fn fabric_shapes() {
        let s = fabric_step(16);
        assert!(!s.has_dup());
        assert!(s.size() > 16);
    }
}
