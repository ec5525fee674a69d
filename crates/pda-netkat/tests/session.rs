//! The per-thread symbolic session: answers in a warm session equal the
//! answers of an empty one, also past each of the session's bounds,
//! where it starts over, kept nodes stay put over many queries, a panic
//! leaves the next query correct, arenas of other variable orders evict
//! nothing, and deep policies answer on a small stack.
//!
//! Each test runs its queries on threads of its own, since the session
//! belongs to the thread that asks.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::corpus::{fabric_step, fabric_step_broken, fabric_step_redundant, policy_pairs};
use pda_netkat::equiv::{counterexample_enumerative, counterexample_under, equivalent};
use pda_netkat::reach::{can_reach, witness_path};
use pda_netkat::specialize::{slice_is_dead, verified_slice_for_switch};
use pda_netkat::sym::{session_node_count, session_stats, SymError};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread;

/// Run `f` on a fresh thread (an empty session) and return its result.
fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    thread::scope(|s| s.spawn(f).join().expect("query thread"))
}

fn field() -> BoxedStrategy<Field> {
    (0..Field::ALL.len()).prop_map(|i| Field::ALL[i]).boxed()
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

/// Random policies over a small value domain; `dup` is one leaf in
/// eight, so that queries also take their `dup` paths.
fn policy() -> impl Strategy<Value = Policy> {
    let filter = pred().prop_map(Policy::Filter).boxed();
    let assign = (field(), 0u32..4)
        .prop_map(|(f, v)| Policy::Mod(f, v))
        .boxed();
    let mut leaves = vec![filter; 3];
    leaves.extend(vec![assign; 3]);
    leaves.push(Just(Policy::Dup).boxed());
    Union::new(leaves).prop_recursive(3, 20, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.union(q)),
            (inner.clone(), inner.clone()).prop_map(|(p, q)| p.seq(q)),
            inner.prop_map(|p| p.star()),
        ]
    })
}

fn pkt() -> impl Strategy<Value = Packet> {
    proptest::collection::vec(0u32..4, Field::ALL.len()).prop_map(|v| {
        let mut p = Packet::zero();
        for (f, x) in Field::ALL.into_iter().zip(v) {
            p = p.with(f, x);
        }
        p
    })
}

/// One session query over policies drawn from a pool by index.
#[derive(Clone, Debug)]
enum Ask {
    Reach(usize, Packet, Pred),
    Witness(usize, Packet, Pred),
    Counterexample(usize, usize),
    Under(Pred, usize, usize),
    Slice(usize, u32),
    Dead(usize, u32),
}

#[derive(Debug, PartialEq)]
enum Answer {
    Holds(bool),
    Path(Option<Vec<Packet>>),
    Witness(Result<Option<Packet>, SymError>),
    Slice(Policy),
}

fn ask(pool: &[Policy], q: &Ask) -> Answer {
    match q {
        Ask::Reach(p, x, g) => Answer::Holds(can_reach(&pool[*p], &BTreeSet::from([*x]), g)),
        Ask::Witness(p, x, g) => Answer::Path(witness_path(&pool[*p], &BTreeSet::from([*x]), g)),
        Ask::Counterexample(p, q) => {
            Answer::Witness(counterexample_under(&Pred::True, &pool[*p], &pool[*q]))
        }
        Ask::Under(g, p, q) => Answer::Witness(counterexample_under(g, &pool[*p], &pool[*q])),
        Ask::Slice(p, sw) => Answer::Slice(verified_slice_for_switch(&pool[*p], *sw)),
        Ask::Dead(p, sw) => Answer::Holds(slice_is_dead(&pool[*p], *sw)),
    }
}

/// A query over a pool of `n` policies.
fn query(n: usize) -> impl Strategy<Value = Ask> {
    let i = move || 0..n;
    prop_oneof![
        (i(), pkt(), pred()).prop_map(|(p, x, g)| Ask::Reach(p, x, g)),
        (i(), pkt(), pred()).prop_map(|(p, x, g)| Ask::Witness(p, x, g)),
        (i(), i()).prop_map(|(p, q)| Ask::Counterexample(p, q)),
        (pred(), i(), i()).prop_map(|(g, p, q)| Ask::Under(g, p, q)),
        (i(), 0u32..4).prop_map(|(p, sw)| Ask::Slice(p, sw)),
        (i(), 0u32..4).prop_map(|(p, sw)| Ask::Dead(p, sw)),
    ]
}

/// Three random policies plus a fabric, and queries over them; a small
/// pool makes queries repeat policies, so later ones run warm.
fn workload() -> impl Strategy<Value = (Vec<Policy>, Vec<Ask>)> {
    let asks = proptest::collection::vec(query(4), 4..24);
    (policy(), policy(), policy(), asks)
        .prop_map(|(p, q, r, asks)| (vec![p, q, r, fabric_step(3)], asks))
}

/// Asks about the benchmark's fabric family in every order the session
/// can meet them: reach between leaves, slices, dead slices, equivalence
/// and counterexamples against the redundant and broken rewrites.
fn fabric_queries() -> (Vec<Policy>, Vec<Ask>) {
    let pool = vec![
        fabric_step(8),
        fabric_step_redundant(8),
        fabric_step_broken(8),
        fabric_step(4),
    ];
    let at = |sw, dst| Packet::of(&[(Field::Switch, sw), (Field::Port, 2), (Field::Dst, dst)]);
    let mut asks = Vec::new();
    for leaf in 1..=8u32 {
        let to = leaf % 8 + 1;
        let goal = Pred::test(Field::Switch, to);
        asks.push(Ask::Reach(0, at(leaf, to), goal.clone()));
        asks.push(Ask::Witness(0, at(leaf, to), goal));
        asks.push(Ask::Slice(0, leaf));
        asks.push(Ask::Dead(0, leaf + 4));
        asks.push(Ask::Counterexample(0, 1 + leaf as usize % 3));
        asks.push(Ask::Under(Pred::test(Field::Switch, 0), 0, 2));
        asks.push(Ask::Reach(
            3,
            at(leaf % 4 + 1, 2),
            Pred::test(Field::Switch, 2),
        ));
    }
    (pool, asks)
}

/// The answers of `asks` in one session, and each on a fresh thread.
fn warm_and_cold(pool: &[Policy], asks: &[Ask]) -> (Vec<Answer>, Vec<Answer>) {
    let warm = fresh(|| asks.iter().map(|q| ask(pool, q)).collect());
    let cold = asks.iter().map(|q| fresh(|| ask(pool, q))).collect();
    (warm, cold)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every query answers in a session that has seen other queries as it
    /// does in an empty one, witnesses and paths included.
    #[test]
    fn warm_answers_equal_cold_answers((pool, asks) in workload()) {
        let (warm, cold) = warm_and_cold(&pool, &asks);
        for ((q, w), c) in asks.iter().zip(&warm).zip(&cold) {
            prop_assert_eq!(w, c, "query {:?} over {:?}", q, pool);
        }
    }
}

#[test]
fn fabric_answers_do_not_depend_on_the_session() {
    let (pool, mut asks) = fabric_queries();
    let (warm, cold) = warm_and_cold(&pool, &asks);
    assert_eq!(warm, cold);
    asks.reverse();
    let (warm, cold) = warm_and_cold(&pool, &asks);
    assert_eq!(warm, cold);
}

fn reach(fabric: &Policy, from: u32, to: u32) -> bool {
    let at = Packet::of(&[(Field::Switch, from), (Field::Port, 2), (Field::Dst, to)]);
    can_reach(
        fabric,
        &BTreeSet::from([at]),
        &Pred::test(Field::Switch, to),
    )
}

#[test]
fn kept_nodes_stay_put_over_a_thousand_reaches() {
    fresh(|| {
        let fabric = fabric_step(64);
        // The first reach searches by images; the second keeps the step.
        assert!(reach(&fabric, 1, 2));
        assert_eq!(session_node_count(), 0);
        assert!(reach(&fabric, 2, 3));
        let kept = session_node_count();
        assert!(kept > 0);
        for i in 0..1000u32 {
            assert!(reach(&fabric, i % 64 + 1, (i * 7) % 64 + 1));
            assert_eq!(session_node_count(), kept, "after reach {i}");
        }
        let s = session_stats();
        assert_eq!((s.warm_queries, s.cold_queries), (1000, 2));
        assert_eq!((s.transformers_compiled, s.transformers_kept), (1, 1));
        assert_eq!((s.compactions, s.evictions), (1, 0));
        assert!(s.nodes_rolled_back > 0);
    });
}

#[test]
fn a_panicking_query_leaves_the_next_one_correct() {
    fresh(|| {
        let fabric = fabric_step(16);
        let (p, q) = (fabric_step_redundant(16), fabric_step_broken(16));
        assert!(equivalent(&fabric, &p));
        assert!(equivalent(&fabric, &p));
        assert!(session_stats().transformers_kept > 0);
        let dup = fabric.clone().seq(Policy::Dup);
        let panicked = catch_unwind(AssertUnwindSafe(|| equivalent(&fabric, &dup)));
        assert!(panicked.is_err(), "equivalent panics on dup");
        assert!(equivalent(&fabric, &p));
        assert_eq!(
            counterexample_under(&Pred::True, &fabric, &q),
            Ok(Some(Packet::of(&[(Field::Switch, 0), (Field::Dst, 16)])))
        );
        assert!(reach(&fabric, 3, 16));
    });
}

#[test]
fn another_variable_order_evicts_nothing_and_a_new_fabric_takes_over() {
    let pair = policy_pairs()
        .into_iter()
        .find(|pp| pp.name == "mod-then-test-absorbs")
        .expect("corpus pair");
    let fabric = fabric_step(32);
    for pair_first in [true, false] {
        fresh(|| {
            let one_off = || assert!(equivalent(&pair.p, &pair.q));
            if pair_first {
                one_off();
            }
            assert!(reach(&fabric, 1, 2));
            assert!(reach(&fabric, 2, 3));
            if !pair_first {
                one_off();
            }
            let before = session_stats();
            assert!(reach(&fabric, 3, 4), "pair first: {pair_first}");
            let after = session_stats();
            assert_eq!(after.warm_queries, before.warm_queries + 1);
            assert_eq!(after.transformers_compiled, before.transformers_compiled);
            assert_eq!(after.evictions, 0);
        });
    }
    fresh(|| {
        let next = fabric_step(48);
        for from in 1..=3 {
            assert!(reach(&fabric, from, 9));
        }
        for from in 1..=3 {
            assert!(reach(&next, from, 40));
        }
        let before = session_stats();
        assert!(reach(&next, 4, 41));
        let after = session_stats();
        assert_eq!(after.warm_queries, before.warm_queries + 1);
        assert_eq!(after.transformers_kept, 2);
    });
}

/// A policy that assigns field `perm[j]` the values `0..j`, so the
/// variable order a query over it runs in is `perm`; `variant` adds a
/// test that changes the policy but not its order.
fn ordered(perm: &[Field], variant: u32) -> Policy {
    let assigns = perm
        .iter()
        .enumerate()
        .flat_map(|(j, &f)| (0..j as u32).map(move |v| Policy::assign(f, v)));
    Policy::filter(Pred::test(Field::Dst, variant).not()).seq(Policy::any(assigns))
}

/// `n` ≤ 12 distinct permutations of the fields: rotations, then
/// rotations with the first and last swapped.
fn perms(n: usize) -> Vec<Vec<Field>> {
    (0..n)
        .map(|r| {
            let mut perm = Field::ALL.to_vec();
            perm.rotate_left(r % 6);
            if r >= 6 {
                perm.swap(0, 5);
            }
            perm
        })
        .collect()
}

/// Twelve variable orders and 72 policies, each asked about in turn, and
/// the whole pool twice: more orders and policies than a session holds,
/// so it starts over, and its answers still equal those of empty
/// sessions.
#[test]
fn answers_survive_evicted_orders_and_policies() {
    let perms = perms(12);
    let pool: Vec<Policy> = (0..6)
        .flat_map(|variant| perms.iter().map(move |perm| ordered(perm, variant)))
        .collect();
    let start = Packet::of(&[(Field::Dst, 9)]);
    let goal = Pred::test(Field::Tag, 4);
    let mut asks = Vec::new();
    for _ in 0..2 {
        for i in 0..pool.len() {
            // The second reach keeps the policy; the witness runs warm.
            asks.push(Ask::Reach(i, start, goal.clone()));
            asks.push(Ask::Reach(i, start, goal.clone()));
            asks.push(Ask::Witness(i, start, goal.clone()));
            asks.push(Ask::Counterexample(i, (i + 12) % pool.len()));
        }
    }
    let (warm, books) = fresh(|| {
        let answers: Vec<Answer> = asks.iter().map(|q| ask(&pool, q)).collect();
        (answers, session_stats())
    });
    let cold: Vec<Answer> = asks.iter().map(|q| fresh(|| ask(&pool, q))).collect();
    assert_eq!(warm, cold);
    assert!(books.evictions > 0, "{books:?}");
    assert!(books.warm_queries > 0, "{books:?}");
}

/// `asks` in one session, with the session's evictions and node count
/// after each; every answer must equal a fresh thread's.
fn books_after_each(pool: &[Policy], asks: &[Ask]) -> Vec<(u64, usize)> {
    let books = || (session_stats().evictions, session_node_count());
    let (warm, books): (Vec<Answer>, _) =
        fresh(|| asks.iter().map(|q| (ask(pool, q), books())).unzip());
    let cold: Vec<Answer> = asks.iter().map(|q| fresh(|| ask(pool, q))).collect();
    assert_eq!(warm, cold);
    books
}

/// Past each bound in turn (a ninth variable order, a 65th counted
/// policy, kept nodes over 4,096) the session starts over as the query
/// that crossed it returns: its evictions rise, its nodes fall, and every
/// answer, before and after, equals a fresh thread's.
#[test]
fn each_bound_starts_the_session_over() {
    let start = Packet::of(&[(Field::Dst, 9), (Field::Src, 3)]);
    let reach = |i, goal: &Pred| Ask::Reach(i, start, goal.clone());
    let (tag, port) = (Pred::test(Field::Tag, 4), Pred::test(Field::Port, 3));
    let twice = |i, goal: &Pred| [reach(i, goal), reach(i, goal)];
    // Nine policies of nine variable orders, each kept by its second
    // reach: keeping the ninth crosses the bound.
    let orders: Vec<Policy> = perms(9).iter().map(|perm| ordered(perm, 0)).collect();
    let order_asks: Vec<Ask> = (0..=9).flat_map(|i| twice(i % 9, &tag)).collect();
    // A kept fabric, then 64 policies reached once each: the last is the
    // 65th counted.
    let tagged = |v| Policy::filter(Pred::test(Field::Src, v)).seq(Policy::assign(Field::Tag, 4));
    let counted: Vec<Policy> = std::iter::once(fabric_step(8))
        .chain((0..64).map(tagged))
        .collect();
    let once = (1..=64).map(|i| reach(i, &tag));
    let counted_asks: Vec<Ask> = twice(0, &tag)
        .into_iter()
        .chain(once)
        .chain(twice(0, &tag))
        .collect();
    // Two steps of one SPP node per source value, 2,500 each: they fit
    // alone but not together.
    let rule = |a| Policy::filter(Pred::test(Field::Src, a)).seq(Policy::assign(Field::Port, a));
    let wide = vec![
        Policy::any((0..2_500).map(rule)),
        Policy::any((10_000..12_500).map(rule)),
    ];
    let wide_asks: Vec<Ask> = (0..=2).flat_map(|i| twice(i % 2, &port)).collect();
    for (pool, asks, crossing) in [
        (&orders, &order_asks, 17),
        (&counted, &counted_asks, 65),
        (&wide, &wide_asks, 3),
    ] {
        let books = books_after_each(pool, asks);
        for (k, &(evictions, _)) in books.iter().enumerate() {
            assert_eq!(
                evictions,
                u64::from(k >= crossing),
                "after ask {k}: {books:?}"
            );
        }
        let (before, after) = (books[crossing - 1].1, books[crossing].1);
        assert!(after < before, "nodes {before} → {after}");
    }
}

/// A kept 64-leaf fabric asked about between 200 distinct one-off
/// equivalence pairs, far more policies than the session counts: the
/// session starts over again and again, keeps the fabric again after a
/// restart, and answers as fresh threads do.
#[test]
fn a_kept_fabric_between_two_hundred_one_off_pairs_answers_as_fresh_threads() {
    let mut pool = vec![fabric_step(64)];
    for v in 0..200u32 {
        let p = Policy::filter(Pred::test(Field::Dst, v)).seq(Policy::assign(Field::Port, 1));
        let q = p
            .clone()
            .seq(Policy::filter(Pred::test(Field::Port, v % 2)));
        pool.extend([p, q]);
    }
    let at = |sw, dst| Packet::of(&[(Field::Switch, sw), (Field::Port, 2), (Field::Dst, dst)]);
    let asks: Vec<Ask> = (0..200u32)
        .flat_map(|v| {
            let (from, to, i) = (v % 64 + 1, (v * 7) % 64 + 1, 1 + 2 * v as usize);
            let reach = Ask::Reach(0, at(from, to), Pred::test(Field::Switch, to));
            [reach, Ask::Counterexample(i, i + 1)]
        })
        .collect();
    let books = books_after_each(&pool, &asks);
    assert!(books
        .iter()
        .any(|&(evictions, nodes)| evictions > 0 && nodes > 0));
}

#[test]
fn a_forty_thousand_term_chain_answers_on_a_two_mib_stack() {
    thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(|| {
            let rule =
                |v| Policy::filter(Pred::test(Field::Dst, v)).seq(Policy::assign(Field::Port, 2));
            let chain = Policy::any((0..40_000).map(rule));
            assert!(equivalent(&chain, &chain));
            let init = BTreeSet::from([Packet::of(&[(Field::Dst, 39_999)])]);
            assert!(can_reach(&chain, &init, &Pred::test(Field::Port, 2)));
            assert!(!can_reach(&chain, &init, &Pred::test(Field::Port, 3)));
            let port = |v| Policy::assign(Field::Port, v);
            let seq = (1..40_000).map(port).fold(port(0), Policy::seq);
            assert!(equivalent(&seq, &seq));
            assert!(can_reach(&seq, &init, &Pred::test(Field::Port, 39_999)));
            assert!(!can_reach(&seq, &init, &Pred::test(Field::Port, 3)));
        })
        .expect("spawn")
        .join()
        .expect("chain queries");
}

#[test]
fn dup_is_an_error_not_a_panic() {
    let fabric = fabric_step(4);
    let dup = Policy::Dup.seq(fabric.clone());
    let guard = Pred::test(Field::Switch, 0);
    for (p, q) in [(&fabric, &dup), (&dup, &fabric)] {
        assert_eq!(
            counterexample_under(&Pred::True, p, q),
            Err(SymError::DupUnsupported)
        );
        assert_eq!(
            counterexample_enumerative(p, q),
            Err(SymError::DupUnsupported)
        );
    }
    assert_eq!(
        counterexample_under(&guard, &dup, &fabric),
        Err(SymError::DupUnsupported)
    );
    assert_eq!(
        pda_netkat::specialize::slice_equivalent(&dup, &fabric, Field::Switch, 0),
        Err(SymError::DupUnsupported)
    );
    assert_eq!(verified_slice_for_switch(&dup, 1), dup);
}
