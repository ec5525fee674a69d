//! Equivalence checking for dup-free NetKAT policies.
//!
//! Two backends decide `p ≡ q`:
//!
//! * **Symbolic** (the default): both policies are converted to canonical
//!   hash-consed transformers in one [`sym::Arena`]; equivalence is then
//!   id equality and counterexamples fall out of the first structural
//!   difference ([`sym::Arena::distinguishing_input`]). Scales to
//!   thousand-switch fabrics (experiment E19).
//! * **Enumerative** (the oracle): dup-free policies denote functions
//!   `Packet → Set<Packet>`; the finite-model construction below
//!   enumerates per-field domains and compares [`eval_set`] pointwise.
//!   Kept as the independent differential-testing oracle for the
//!   symbolic engine (`tests/sym_diff.rs`).
//!
//! # Completeness of the enumerative finite model
//!
//! Tests and modifications only ever compare or assign *constants*, so a
//! policy's behaviour on a field depends only on which of the mentioned
//! constants the field equals — or "none of them". Enumerating each field
//! over the constants mentioned in **either** policy plus exactly one
//! *fresh representative* is therefore a complete finite model: any two
//! unmentioned values are indistinguishable by both policies (no test can
//! separate them, and any assignment maps both to the same constant), so
//! one representative suffices, and it must be chosen **outside** the
//! mentioned set or it would alias a distinguishable value and mask
//! differences. `fresh_for` pins this choice to the smallest value not
//! mentioned for the field; the regression tests below cover the edge
//! where mentioned values are adjacent to (or interleaved around) the
//! chosen representative.

use crate::ast::{Field, Packet, Policy, Pred};
use crate::semantics::eval_set;
use crate::sym;
use std::collections::BTreeSet;

/// Which decision procedure to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Backend {
    /// Canonical symbolic transformers ([`sym`]); the default.
    #[default]
    Symbolic,
    /// Finite-model enumeration over [`eval_set`]; the oracle.
    Enumerative,
}

/// Decide `p ≡ q` for dup-free policies with the symbolic backend.
/// Panics on `dup` (histories are not compared by this routine).
pub fn equivalent(p: &Policy, q: &Policy) -> bool {
    equivalent_with(Backend::Symbolic, p, q)
}

/// Find a packet on which the two (dup-free) policies disagree, using the
/// symbolic backend.
pub fn counterexample(p: &Policy, q: &Policy) -> Option<Packet> {
    counterexample_with(Backend::Symbolic, p, q)
}

/// Decide `p ≡ q` with an explicit backend choice.
pub fn equivalent_with(backend: Backend, p: &Policy, q: &Policy) -> bool {
    counterexample_with(backend, p, q).is_none()
}

/// Find a distinguishing packet with an explicit backend choice.
pub fn counterexample_with(backend: Backend, p: &Policy, q: &Policy) -> Option<Packet> {
    assert!(
        !p.has_dup() && !q.has_dup(),
        "equivalence checking is implemented for the dup-free fragment"
    );
    match backend {
        Backend::Symbolic => counterexample_under(&Pred::True, p, q),
        Backend::Enumerative => counterexample_enumerative(p, q),
    }
}

/// A packet satisfying `guard` on which the two (dup-free) policies
/// disagree: the symbolic [`counterexample`] of `filter guard ; p` and
/// `filter guard ; q`. Both sides convert under the guard
/// ([`sym::Arena::spp_from_policy_under`]), so sub-policies the guard
/// makes dead are never built. Panics on `dup`, like [`counterexample`].
pub fn counterexample_under(guard: &Pred, p: &Policy, q: &Policy) -> Option<Packet> {
    assert!(
        !p.has_dup() && !q.has_dup(),
        "equivalence checking is implemented for the dup-free fragment"
    );
    let mut ar = sym::Arena::for_policies(&[p, q]);
    let g = ar.sp_from_pred(guard);
    let a = ar
        .spp_from_policy_under(g, p)
        .expect("dup-free policy converts to a transformer");
    let b = ar
        .spp_from_policy_under(g, q)
        .expect("dup-free policy converts to a transformer");
    let witness = ar.distinguishing_input(a, b)?;
    let pkt = ar.packet_of_values(&witness);
    debug_assert!(guard.eval(&pkt), "the witness lies in the guard");
    debug_assert_ne!(
        eval_set(p, &BTreeSet::from([pkt])),
        eval_set(q, &BTreeSet::from([pkt])),
        "symbolic witness must distinguish the policies"
    );
    Some(pkt)
}

/// Decide `p ≡ q` with the enumerative finite-model oracle.
pub fn equivalent_enumerative(p: &Policy, q: &Policy) -> bool {
    counterexample_enumerative(p, q).is_none()
}

/// The fresh representative for a field: the smallest value not among the
/// constants mentioned for it. Pinned (and tested) because oracle
/// completeness requires the representative to lie outside the mentioned
/// set — see the module docs.
fn fresh_for(mentioned: &[u32]) -> u32 {
    (0..)
        .find(|v| !mentioned.contains(v))
        .expect("u32 not exhausted")
}

/// Find a packet on which the two (dup-free) policies disagree by
/// enumerating the finite model.
pub fn counterexample_enumerative(p: &Policy, q: &Policy) -> Option<Packet> {
    let mut consts = Vec::new();
    p.constants(&mut consts);
    q.constants(&mut consts);

    // Per-field value domains: mentioned constants + one fresh value.
    let mut domains: Vec<Vec<u32>> = Vec::with_capacity(Field::ALL.len());
    for f in Field::ALL {
        let mut vals: Vec<u32> = consts
            .iter()
            .filter(|(g, _)| *g == f)
            .map(|(_, v)| *v)
            .collect();
        vals.sort_unstable();
        vals.dedup();
        vals.push(fresh_for(&vals));
        domains.push(vals);
    }

    // Enumerate the cross product.
    let mut pkt = Packet::zero();
    enumerate(&domains, 0, &mut pkt, &mut |candidate| {
        let pin = BTreeSet::from([*candidate]);
        if eval_set(p, &pin) != eval_set(q, &pin) {
            Some(*candidate)
        } else {
            None
        }
    })
}

fn enumerate<T>(
    domains: &[Vec<u32>],
    field_idx: usize,
    pkt: &mut Packet,
    visit: &mut impl FnMut(&Packet) -> Option<T>,
) -> Option<T> {
    if field_idx == domains.len() {
        return visit(pkt);
    }
    for &v in &domains[field_idx] {
        pkt.0[field_idx] = v;
        if let Some(t) = enumerate(domains, field_idx + 1, pkt, visit) {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Pred;

    const BACKENDS: [Backend; 2] = [Backend::Symbolic, Backend::Enumerative];

    fn f(p: Pred) -> Policy {
        Policy::filter(p)
    }

    fn both(expect: bool, p: &Policy, q: &Policy) {
        for b in BACKENDS {
            assert_eq!(equivalent_with(b, p, q), expect, "backend {b:?}");
        }
    }

    // Kleene-algebra-with-tests axioms, checked semantically.
    #[test]
    fn union_commutative_and_idempotent() {
        let p = Policy::assign(Field::Port, 1);
        let q = f(Pred::test(Field::Switch, 2));
        both(
            true,
            &p.clone().union(q.clone()),
            &q.clone().union(p.clone()),
        );
        both(true, &p.clone().union(p.clone()), &p);
    }

    #[test]
    fn seq_associative_with_identities() {
        let p = Policy::assign(Field::Port, 1);
        let q = f(Pred::test(Field::Port, 1));
        let r = Policy::assign(Field::Tag, 3);
        both(
            true,
            &p.clone().seq(q.clone()).seq(r.clone()),
            &p.clone().seq(q.clone().seq(r.clone())),
        );
        both(true, &Policy::id().seq(p.clone()), &p);
        both(true, &p.clone().seq(Policy::id()), &p);
        both(true, &Policy::drop().seq(p.clone()), &Policy::drop());
    }

    #[test]
    fn distribution_left() {
        let p = Policy::assign(Field::Port, 1);
        let q = Policy::assign(Field::Port, 2);
        let r = f(Pred::test(Field::Port, 1));
        both(
            true,
            &p.clone().union(q.clone()).seq(r.clone()),
            &p.seq(r.clone()).union(q.seq(r)),
        );
    }

    #[test]
    fn star_unrolling() {
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let star = step.clone().star();
        // p* ≡ id + p ; p*
        both(
            true,
            &star,
            &Policy::id().union(step.clone().seq(star.clone())),
        );
    }

    #[test]
    fn mod_then_test_absorbs() {
        // f := n ; filter f = n ≡ f := n   (PA axiom)
        let lhs = Policy::assign(Field::Dst, 5).seq(f(Pred::test(Field::Dst, 5)));
        let rhs = Policy::assign(Field::Dst, 5);
        both(true, &lhs, &rhs);
    }

    #[test]
    fn test_then_mod_same_value_commutes() {
        // filter f = n ; f := n ≡ filter f = n
        let lhs = f(Pred::test(Field::Dst, 5)).seq(Policy::assign(Field::Dst, 5));
        let rhs = f(Pred::test(Field::Dst, 5));
        both(true, &lhs, &rhs);
    }

    #[test]
    fn inequivalent_policies_yield_counterexample() {
        let p = Policy::assign(Field::Port, 1);
        let q = Policy::assign(Field::Port, 2);
        for b in BACKENDS {
            let cx = counterexample_with(b, &p, &q).expect("distinct mods must differ");
            let pin = BTreeSet::from([cx]);
            assert_ne!(eval_set(&p, &pin), eval_set(&q, &pin), "backend {b:?}");
        }
    }

    #[test]
    fn filters_commute_with_each_other() {
        let a = f(Pred::test(Field::Src, 1));
        let b = f(Pred::test(Field::Dst, 2));
        both(true, &a.clone().seq(b.clone()), &b.clone().seq(a.clone()));
    }

    #[test]
    fn fresh_value_distinguishes_negation() {
        // filter !(src = 1) is NOT the same as filter src = 2 even though
        // both accept src=2: the fresh-value row catches it.
        let p = f(Pred::test(Field::Src, 1).not());
        let q = f(Pred::test(Field::Src, 2));
        both(false, &p, &q);
    }

    #[test]
    fn fresh_representative_is_pinned_outside_mentioned_values() {
        assert_eq!(fresh_for(&[]), 0);
        assert_eq!(fresh_for(&[0]), 1);
        assert_eq!(fresh_for(&[1, 2]), 0);
        // Adjacent/contiguous runs: the representative must skip them all.
        assert_eq!(fresh_for(&[0, 1, 2]), 3);
        // A gap between mentioned values is fine to use.
        assert_eq!(fresh_for(&[0, 2]), 1);
    }

    #[test]
    fn adjacent_mentioned_values_do_not_mask_differences() {
        // p accepts src ∉ {0,1}; q accepts src = 2 only. The mentioned set
        // for src is the contiguous run {0,1,2}: a buggy fresh choice
        // inside the run (e.g. reusing 2) would make the oracle see
        // identical rows and wrongly report equivalence. The pinned fresh
        // representative 3 distinguishes them.
        let p = f(Pred::test(Field::Src, 0)
            .or(Pred::test(Field::Src, 1))
            .not());
        let q = f(Pred::test(Field::Src, 2));
        for b in BACKENDS {
            let cx = counterexample_with(b, &p, &q).expect("must differ");
            assert!(
                cx.get(Field::Src) > 2,
                "witness must use a value outside the mentioned run, got {cx:?}"
            );
        }
    }
}
