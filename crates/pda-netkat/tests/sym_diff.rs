//! Differential testing of the symbolic backend against the enumerative
//! oracle: on random dup-free policies the two decision procedures must
//! agree on equivalence verdicts, counterexample witnesses must actually
//! distinguish the policies under `eval_packet`, reachability, witness
//! paths and dead slices must coincide, guarded conversion and policy
//! images must equal their whole-policy counterparts, and the arena's
//! structural invariants must hold after every workload. Reachability
//! and witness paths are also drawn over steps with `dup`, which both
//! backends read as `id`, and both refuse `dup` in an equivalence.
//!
//! The small-domain policies never build a node row of more than a few
//! values. The wide-row policies below do: fabric-shaped union spines
//! over `sw` and `dst` whose constants span the whole `u32` range, so
//! rows are long, sparse and interleaved as in the benchmark fabric.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::equiv::{counterexample_under, equivalent, equivalent_enumerative};
use pda_netkat::reach::{can_reach, can_reach_enumerative, witness_path, witness_path_enumerative};
use pda_netkat::semantics::{eval_packet, eval_set};
use pda_netkat::specialize::slice_is_dead;
use pda_netkat::sym::{Arena, Sp, SymError};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn field() -> BoxedStrategy<Field> {
    prop_oneof![
        Just(Field::Switch),
        Just(Field::Port),
        Just(Field::Src),
        Just(Field::Dst),
        Just(Field::Proto),
        Just(Field::Tag),
    ]
    .boxed()
}

/// Two fields only, so that a policy often modifies a field it or its
/// guard also tests.
fn switch_or_port() -> BoxedStrategy<Field> {
    prop_oneof![Just(Field::Switch), Just(Field::Port)].boxed()
}

fn pred() -> impl Strategy<Value = Pred> {
    pred_on(field())
}

fn pred_on(fields: BoxedStrategy<Field>) -> impl Strategy<Value = Pred> {
    let leaf = prop_oneof![
        Just(Pred::True),
        Just(Pred::False),
        (fields, 0u32..4).prop_map(|(f, v)| Pred::Test(f, v)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// Random policies over `fields` and a small value domain (keeps the
/// enumerative oracle fast); with `dup`, it is one leaf in three.
fn policy_on(fields: BoxedStrategy<Field>, with_dup: bool) -> impl Strategy<Value = Policy> {
    let mut leaves = vec![
        pred_on(fields.clone()).prop_map(Policy::Filter).boxed(),
        (fields, 0u32..4)
            .prop_map(|(f, v)| Policy::Mod(f, v))
            .boxed(),
    ];
    if with_dup {
        leaves.push(Just(Policy::Dup).boxed());
    }
    Union::new(leaves).prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.union(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            inner.prop_map(|p| p.star()),
        ]
    })
}

/// Random dup-free policies.
fn policy() -> impl Strategy<Value = Policy> {
    policy_on(field(), false)
}

/// `p` with every `dup` replaced by `id`.
fn without_dup(p: &Policy) -> Policy {
    match p {
        Policy::Dup => Policy::id(),
        Policy::Union(ps) => Policy::Union(ps.iter().map(without_dup).collect()),
        Policy::Seq(ps) => Policy::Seq(ps.iter().map(without_dup).collect()),
        Policy::Star(x) => without_dup(x).star(),
        Policy::Filter(_) | Policy::Mod(_, _) => p.clone(),
    }
}

/// Check a symbolic witness path against the enumerative one for
/// `step`: both exist or neither does, and a symbolic path is as
/// short as the oracle's, starts in `init`, ends in `goal` and takes
/// only `step` hops.
fn check_witness(
    step: &Policy,
    init: &BTreeSet<Packet>,
    goal: &Pred,
    sym: Option<Vec<Packet>>,
) -> Result<(), TestCaseError> {
    let enu = witness_path_enumerative(step, init, goal);
    let (path, oracle) = match (sym, enu) {
        (None, None) => return Ok(()),
        (Some(p), Some(o)) => (p, o),
        (s, e) => {
            return Err(TestCaseError::fail(format!(
                "witness split on step={step}: sym {s:?}, enum {e:?}"
            )))
        }
    };
    prop_assert_eq!(path.len(), oracle.len(), "step={}", step);
    prop_assert!(init.contains(&path[0]), "path leaves init: {:?}", path);
    prop_assert!(
        goal.eval(&path[path.len() - 1]),
        "path misses goal: {:?}",
        path
    );
    for hop in path.windows(2) {
        let outs = eval_set(step, &BTreeSet::from([hop[0]]));
        prop_assert!(
            outs.contains(&hop[1]),
            "invalid hop {:?} -> {:?} under {}",
            hop[0],
            hop[1],
            step
        );
    }
    Ok(())
}

/// Sparse constants for wide rows: both ends of the `u32` range, powers
/// of two and their neighbours, the fabric's leaf numbers around 64, and
/// the small values the oracle and witnesses pick as fresh
/// representatives. Sixteen values keep the oracle's model of `sw` and
/// `dst` at most 17 × 17 packets.
const WIDE: [u32; 16] = [
    0,
    1,
    2,
    3,
    7,
    63,
    64,
    65,
    255,
    256,
    65_535,
    1 << 16,
    1 << 31,
    u32::MAX - 2,
    u32::MAX - 1,
    u32::MAX,
];

fn wide_value() -> impl Strategy<Value = u32> {
    (0..WIDE.len()).prop_map(|i| WIDE[i])
}

fn switch_or_dst() -> BoxedStrategy<Field> {
    prop_oneof![Just(Field::Switch), Just(Field::Dst)].boxed()
}

fn wide_pred() -> impl Strategy<Value = Pred> {
    let leaf = (switch_or_dst(), wide_value()).prop_map(|(f, v)| Pred::Test(f, v));
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            inner.prop_map(|a| a.not()),
        ]
    })
}

/// One term of a wide spine: mostly a rule shaped like a fabric
/// down-rule, `filter g ; filter dst = b ; f := c`, whose guard `g` is a
/// switch test, a random predicate or a negation; sometimes a bare
/// random filter.
fn wide_term() -> impl Strategy<Value = Policy> {
    let guard = prop_oneof![
        wide_value().prop_map(|a| Pred::test(Field::Switch, a)),
        wide_value().prop_map(|a| Pred::test(Field::Switch, a).not()),
        wide_pred(),
        wide_pred().prop_map(|g| g.not()),
    ];
    let rule = ((guard, wide_value()), (switch_or_dst(), wide_value()))
        .prop_map(|((g, b), (f, c))| {
            Policy::filter(g)
                .seq(Policy::filter(Pred::test(Field::Dst, b)))
                .seq(Policy::assign(f, c))
        })
        .boxed();
    prop_oneof![
        rule.clone(),
        rule.clone(),
        rule,
        wide_pred().prop_map(Policy::filter),
    ]
}

/// The terms of a wide union spine: 8-24 of them.
fn wide_terms() -> impl Strategy<Value = Vec<Policy>> {
    proptest::collection::vec(wide_term(), 8..25)
}

fn wide_pkt() -> impl Strategy<Value = Packet> {
    (wide_value(), wide_value())
        .prop_map(|(sw, dst)| Packet::of(&[(Field::Switch, sw), (Field::Dst, dst)]))
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
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The backends agree on the equivalence verdict, and whenever they
    /// report inequivalence the symbolic witness actually distinguishes
    /// the policies under the denotational semantics.
    #[test]
    fn backends_agree_on_equivalence(p in policy(), q in policy()) {
        let sym = equivalent(&p, &q);
        let enu = equivalent_enumerative(&p, &q);
        prop_assert_eq!(Ok(sym), enu, "verdict split on p={}, q={}", p, q);
        if !sym {
            let w = counterexample_under(&Pred::True, &p, &q)
                .expect("dup-free")
                .expect("inequivalent policies must yield a witness");
            prop_assert_ne!(
                eval_packet(&p, w),
                eval_packet(&q, w),
                "witness {:?} does not distinguish p={}, q={}",
                w, p, q
            );
        }
    }

    /// Every policy is symbolically equivalent to itself post-roundtrip
    /// through the arena, and the symbolic evaluator agrees pointwise
    /// with the denotational one.
    #[test]
    fn symbolic_eval_matches_denotational(p in policy(), x in pkt()) {
        // `for_policies` picks a (generally non-identity) variable order,
        // so this also differentially tests the slot permutation logic.
        let mut ar = Arena::for_policies(&[&p]);
        let t = ar.spp_from_policy(&p).expect("dup-free");
        let sym: BTreeSet<Packet> = ar
            .spp_eval(t, &ar.values_of_packet(&x))
            .iter()
            .map(|v| ar.packet_of_values(v))
            .collect();
        prop_assert_eq!(sym, eval_packet(&p, x), "policy {}", p);
        prop_assert!(ar.check_invariants().is_ok());
    }

    /// Symbolic and enumerative reachability coincide, over steps with
    /// `dup` too.
    #[test]
    fn backends_agree_on_reachability(p in policy_on(field(), true), x in pkt(), g in pred()) {
        let init = BTreeSet::from([x]);
        let sym = can_reach(&p, &init, &g);
        let enu = can_reach_enumerative(&p, &init, &g);
        prop_assert_eq!(sym, enu, "reachability split on step={}", p);
    }

    /// Converting under a guard gives the very node of converting the
    /// guarded policy in full: for a random predicate and a single test
    /// (the shape of a slice guard) as the guard, and for every single
    /// test guarding a policy over the guard's own two fields, where
    /// modifications often re-open what the guard ruled out.
    #[test]
    fn guarded_conversion_matches_full_conversion(
        p in policy(),
        a in pred(),
        f in field(),
        v in 0u32..4,
        q in policy_on(switch_or_port(), false),
    ) {
        let mut ar = Arena::for_policies(&[&p, &q]);
        let mut cases = vec![(a, &p), (Pred::test(f, v), &p)];
        for h in [Field::Switch, Field::Port] {
            cases.extend((0..4).map(|w| (Pred::test(h, w), &q)));
        }
        for (g, pol) in cases {
            let gs = ar.sp_from_pred(&g);
            let under = ar.spp_from_policy_under(gs, pol).expect("dup-free");
            let guarded = Policy::filter(g.clone()).seq(pol.clone());
            let full = ar.spp_from_policy(&guarded).expect("dup-free");
            prop_assert_eq!(under, full, "guard {}, policy {}", g, pol);
        }
        prop_assert!(ar.check_invariants().is_ok(), "invariants: {:?}", ar.check_invariants());
    }

    /// Images by structural recursion equal images through the compiled
    /// transformer, on a predicate's set and on a single packet.
    #[test]
    fn policy_images_match_transformer_images(p in policy(), a in pred(), x in pkt()) {
        let mut ar = Arena::for_policies(&[&p]);
        let t = ar.spp_from_policy(&p).expect("dup-free");
        let vals = ar.values_of_packet(&x);
        let sets = [ar.sp_from_pred(&a), ar.sp_singleton(&vals)];
        for s in sets {
            let fwd = ar.push_policy(s, &p);
            prop_assert_eq!(fwd, ar.push(s, t), "push through {}", p);
            let bwd = ar.pre_policy(&p, s);
            prop_assert_eq!(bwd, ar.pre(t, s), "pre through {}", p);
        }
        prop_assert!(ar.check_invariants().is_ok(), "invariants: {:?}", ar.check_invariants());
    }

    /// Symbolic witness paths are shortest, valid paths exactly when the
    /// enumerative BFS finds one, over steps with `dup` too.
    #[test]
    fn witness_paths_agree(
        p in policy_on(field(), true),
        xs in proptest::collection::vec(pkt(), 1..4),
        g in pred(),
    ) {
        let init: BTreeSet<Packet> = xs.into_iter().collect();
        check_witness(&p, &init, &g, witness_path(&p, &init, &g))?;
    }

    /// A slice is dead exactly when the oracle finds `filter sw=k ; p`
    /// equivalent to drop.
    #[test]
    fn dead_slices_agree(p in policy(), k in 0u32..4) {
        let guarded = Policy::filter(Pred::test(Field::Switch, k)).seq(p.clone());
        prop_assert_eq!(
            Ok(slice_is_dead(&p, k)),
            equivalent_enumerative(&guarded, &Policy::drop()),
            "sw={} policy {}", k, p
        );
    }

    /// `dup` only archives the packet, so reachability over a step with
    /// `dup` answers as the oracle does with every `dup` read as `id`,
    /// for a random goal and for every single-field test as the goal.
    #[test]
    fn reach_reads_dup_as_identity(p in policy_on(field(), true), x in pkt(), g in pred()) {
        let init = BTreeSet::from([x]);
        let q = without_dup(&p);
        let tests = Field::ALL.into_iter().flat_map(|f| (0..4).map(move |v| Pred::test(f, v)));
        for goal in std::iter::once(g).chain(tests) {
            prop_assert_eq!(
                can_reach(&p, &init, &goal),
                can_reach_enumerative(&q, &init, &goal),
                "step={}, goal {}", p, goal
            );
            check_witness(&q, &init, &goal, witness_path(&p, &init, &goal))?;
        }
    }

    /// Interning gives id equality for structurally equal conversions:
    /// converting the same policy twice into one arena yields the same
    /// node, and the arena invariants (canonical ordering, pruning,
    /// intern-table consistency) hold after arbitrary op mixes.
    #[test]
    fn arena_interning_and_invariants(p in policy(), q in policy()) {
        let mut ar = Arena::for_policies(&[&p, &q]);
        let a1 = ar.spp_from_policy(&p).expect("dup-free");
        let a2 = ar.spp_from_policy(&p).expect("dup-free");
        prop_assert_eq!(a1, a2, "same policy must intern to the same id");
        let b = ar.spp_from_policy(&q).expect("dup-free");
        let u1 = ar.spp_union(a1, b);
        let u2 = ar.spp_union(b, a1);
        prop_assert_eq!(u1, u2, "union must be order-insensitive");
        let s = ar.spp_seq(a1, b);
        let _ = ar.spp_star(s);
        prop_assert!(ar.check_invariants().is_ok(), "invariants: {:?}", ar.check_invariants());
    }

    /// On wide spines the backends agree on equivalence: a spine and its
    /// reversal are equivalent, and a spine missing one term is judged
    /// alike by both, with a witness that really distinguishes.
    #[test]
    fn wide_rows_agree_on_equivalence(terms in wide_terms(), k in 0usize..24) {
        let p = Policy::any(terms.iter().cloned());
        let reversed = Policy::any(terms.iter().rev().cloned());
        prop_assert!(equivalent(&p, &reversed), "p={}", p);
        let k = k % terms.len();
        let q = Policy::any(terms.iter().enumerate().filter(|(i, _)| *i != k).map(|(_, t)| t.clone()));
        let sym = equivalent(&p, &q);
        prop_assert_eq!(Ok(sym), equivalent_enumerative(&p, &q), "p={}, q={}", p, q);
        if !sym {
            let w = counterexample_under(&Pred::True, &p, &q)
                .expect("dup-free")
                .expect("inequivalent policies must yield a witness");
            prop_assert_ne!(eval_packet(&p, w), eval_packet(&q, w), "witness {:?}", w);
        }
    }

    /// On wide spines the symbolic evaluator agrees with the denotational
    /// one, images through the transformer equal images by structural
    /// recursion, and the arena stays canonical.
    #[test]
    fn wide_rows_eval_and_images_match(terms in wide_terms(), x in wide_pkt(), a in wide_pred()) {
        let p = Policy::any(terms);
        let mut ar = Arena::for_policies(&[&p]);
        let t = ar.spp_from_policy(&p).expect("dup-free");
        let sym: BTreeSet<Packet> = ar
            .spp_eval(t, &ar.values_of_packet(&x))
            .iter()
            .map(|v| ar.packet_of_values(v))
            .collect();
        prop_assert_eq!(sym, eval_packet(&p, x), "policy {}", p);
        let vals = ar.values_of_packet(&x);
        let sets = [ar.sp_from_pred(&a), ar.sp_singleton(&vals)];
        for s in sets {
            let fwd = ar.push_policy(s, &p);
            prop_assert_eq!(fwd, ar.push(s, t), "push through {}", p);
            let bwd = ar.pre_policy(&p, s);
            prop_assert_eq!(bwd, ar.pre(t, s), "pre through {}", p);
        }
        prop_assert!(ar.check_invariants().is_ok(), "invariants: {:?}", ar.check_invariants());
    }

    /// On wide spines symbolic reachability and witness paths agree with
    /// the enumerative BFS.
    #[test]
    fn wide_rows_agree_on_reach(terms in wide_terms(), xs in proptest::collection::vec(wide_pkt(), 1..4), g in wide_pred()) {
        let p = Policy::any(terms);
        let init: BTreeSet<Packet> = xs.into_iter().collect();
        prop_assert_eq!(can_reach(&p, &init, &g), can_reach_enumerative(&p, &init, &g), "step={}", p);
        check_witness(&p, &init, &g, witness_path(&p, &init, &g))?;
    }
}

/// Both backends reach over a step with `dup`, reading it as `id`, and
/// the enumerative equivalence refuses it: it compares packets, not
/// histories.
#[test]
fn dup_reaches_on_both_backends_and_the_oracle_equivalence_refuses_it() {
    let step = Policy::Dup
        .seq(Policy::filter(Pred::test(Field::Switch, 1)))
        .seq(Policy::assign(Field::Switch, 2));
    let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1)])]);
    let goal = Pred::test(Field::Switch, 2);
    assert!(can_reach(&step, &init, &goal) && can_reach_enumerative(&step, &init, &goal));
    let plain = without_dup(&step);
    let refused = Err(SymError::DupUnsupported);
    assert_eq!(equivalent_enumerative(&step, &plain), refused);
    assert_eq!(equivalent_enumerative(&plain, &step), refused);
}

/// Over `u64` tests at the ends of the range (the shape `pda-analyze`
/// builds from exact-match cells) the sets form a boolean algebra, and a
/// witness of a complement avoids every tested value.
#[test]
fn u64_extremes_obey_the_boolean_algebra() {
    let mut ar = Arena::new(2);
    let vals = [0, u64::MAX - 1, u64::MAX];
    let mut sets = vec![Sp::EMPTY, Sp::FULL];
    for f in 0..2 {
        for &v in &vals {
            sets.push(ar.sp_test(f, v));
        }
    }
    let (a0, a1) = (sets[2], sets[6]);
    let both = ar.sp_intersect(a0, a1);
    let either = ar.sp_union(sets[3], sets[7]);
    sets.extend([both, either]);
    for &a in &sets {
        let na = ar.sp_complement(a);
        assert_eq!(ar.sp_complement(na), a);
        assert_eq!(ar.sp_union(a, na), Sp::FULL);
        assert_eq!(ar.sp_intersect(a, na), Sp::EMPTY);
        for &b in &sets {
            let ab = ar.sp_union(a, b);
            assert_eq!(ab, ar.sp_union(b, a));
            let a_and_b = ar.sp_intersect(a, b);
            assert_eq!(a_and_b, ar.sp_intersect(b, a));
            assert_eq!(ar.sp_union(a, a_and_b), a, "absorption");
            let nb = ar.sp_complement(b);
            let not_ab = ar.sp_complement(ab);
            assert_eq!(not_ab, ar.sp_intersect(na, nb), "De Morgan");
            for &c in &sets {
                let bc = ar.sp_union(b, c);
                let lhs = ar.sp_intersect(a, bc);
                let ac = ar.sp_intersect(a, c);
                assert_eq!(lhs, ar.sp_union(a_and_b, ac), "distributivity");
            }
        }
    }
    let tested = sets[2..8]
        .iter()
        .fold(Sp::EMPTY, |acc, &s| ar.sp_union(acc, s));
    let rest = ar.sp_complement(tested);
    let w = ar.sp_witness(rest).expect("the complement is not empty");
    assert!(w.iter().all(|x| !vals.contains(x)), "witness {w:?}");
    assert!(ar.sp_contains(rest, &w) && !ar.sp_contains(tested, &w));
    ar.check_invariants().unwrap();
}
