//! Differential testing of the symbolic backend against the enumerative
//! oracle: on random dup-free policies the two decision procedures must
//! agree on equivalence verdicts, counterexample witnesses must actually
//! distinguish the policies under `eval_packet`, reachability, witness
//! paths and dead slices must coincide, guarded conversion and policy
//! images must equal their whole-policy counterparts, and the arena's
//! structural invariants must hold after every workload. On policies
//! with `dup`, reachability must answer as the oracle does with every
//! `dup` read as `id`.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::equiv::{counterexample_with, equivalent_enumerative, equivalent_with, Backend};
use pda_netkat::reach::{can_reach, can_reach_enumerative, witness_path, witness_path_enumerative};
use pda_netkat::semantics::{eval_packet, eval_set};
use pda_netkat::specialize::slice_is_dead;
use pda_netkat::sym::Arena;
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
        Policy::Union(l, r) => without_dup(l).union(without_dup(r)),
        Policy::Seq(l, r) => without_dup(l).seq(without_dup(r)),
        Policy::Star(x) => without_dup(x).star(),
        Policy::Filter(_) | Policy::Mod(_, _) => p.clone(),
    }
}

/// Check a symbolic witness path against the enumerative one for the
/// dup-free `step`: both exist or neither does, and a symbolic path is as
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
        let sym = equivalent_with(Backend::Symbolic, &p, &q);
        let enu = equivalent_with(Backend::Enumerative, &p, &q);
        prop_assert_eq!(sym, enu, "verdict split on p={}, q={}", p, q);
        if !sym {
            let w = counterexample_with(Backend::Symbolic, &p, &q)
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

    /// Symbolic and enumerative reachability coincide.
    #[test]
    fn backends_agree_on_reachability(p in policy(), x in pkt(), g in pred()) {
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
    /// enumerative BFS finds one.
    #[test]
    fn witness_paths_agree(
        p in policy(),
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
            slice_is_dead(&p, k),
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
}
