//! Answers of the symbolic backend that must stay put: the packets that
//! `counterexample` and `witness_path` return on the benchmark fabric,
//! and independence of every answer and counter from the keys each arena
//! draws for its hash tables.

use pda_netkat::ast::{Field, Packet, Policy, Pred};
use pda_netkat::corpus::{fabric_step, fabric_step_broken, fabric_step_redundant, policy_pairs};
use pda_netkat::equiv::counterexample;
use pda_netkat::reach::witness_path;
use pda_netkat::sym::{Arena, Sp};
use std::collections::BTreeSet;

/// Everything observable about one run of `queries` in a fresh arena.
#[derive(Debug, PartialEq)]
struct Outcome {
    sp_nodes: usize,
    spp_nodes: usize,
    cache_hits: u64,
    cache_misses: u64,
    distinguishing: Vec<Option<Vec<u64>>>,
    witnesses: Vec<Option<Vec<u64>>>,
}

/// Conversions, images, closures and witnesses over `p` and `q`, the mix
/// an equivalence check, a reach query and a slice check make.
fn queries(p: &Policy, q: &Policy) -> Outcome {
    let mut ar = Arena::for_policies(&[p, q]);
    let a = ar.spp_from_policy(p).expect("dup-free");
    let b = ar.spp_from_policy(q).expect("dup-free");
    let mut distinguishing = vec![ar.distinguishing_input(a, b)];
    let mut witnesses = Vec::new();
    for sw in 0..4 {
        let guard = ar.sp_from_pred(&Pred::test(Field::Switch, sw));
        let ga = ar.spp_from_policy_under(guard, p).expect("dup-free");
        let gb = ar.spp_from_policy_under(guard, q).expect("dup-free");
        distinguishing.push(ar.distinguishing_input(ga, gb));
        let at = ar.values_of_packet(&Packet::of(&[(Field::Switch, sw), (Field::Dst, 2)]));
        let s = ar.sp_singleton(&at);
        let reach = ar.push_policy(s, &p.clone().star());
        let back = ar.pre(a, reach);
        let outside = ar.sp_complement(reach);
        let image = ar.push(outside, b);
        for set in [reach, back, outside, image, Sp::EMPTY] {
            witnesses.push(ar.sp_witness(set));
        }
    }
    let stats = ar.stats();
    Outcome {
        sp_nodes: ar.sp_node_count(),
        spp_nodes: ar.spp_node_count(),
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        distinguishing,
        witnesses,
    }
}

#[test]
fn answers_do_not_depend_on_the_hash_keys() {
    let mut pairs: Vec<(Policy, Policy)> = [4, 16, 64]
        .into_iter()
        .flat_map(|n| {
            [
                (fabric_step(n), fabric_step_broken(n)),
                (fabric_step(n), fabric_step_redundant(n)),
            ]
        })
        .collect();
    pairs.extend(policy_pairs().into_iter().map(|pp| (pp.p, pp.q)));
    for (p, q) in &pairs {
        // Each arena draws its own keys.
        let first = queries(p, q);
        assert!(first.cache_misses > 0);
        assert_eq!(first, queries(p, q), "p = {p}, q = {q}");
    }
}

#[test]
fn fabric_counterexamples_are_pinned() {
    for n in [4, 8, 64] {
        assert_eq!(
            counterexample(&fabric_step(n), &fabric_step_broken(n)),
            Some(Packet::of(&[(Field::Switch, 0), (Field::Dst, n)])),
            "n = {n}"
        );
    }
}

#[test]
fn fabric_witness_path_is_pinned() {
    let hop = |sw, pt| Packet::of(&[(Field::Switch, sw), (Field::Port, pt), (Field::Dst, 16)]);
    let init = BTreeSet::from([hop(1, 2)]);
    assert_eq!(
        witness_path(&fabric_step(16), &init, &Pred::test(Field::Switch, 16)),
        Some(vec![hop(1, 2), hop(0, 1), hop(16, 2)])
    );
}
