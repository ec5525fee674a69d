//! Denotational semantics of NetKAT.
//!
//! Two evaluators:
//!
//! * [`eval_packet`] — the *dup-free* semantics: a policy denotes a
//!   function `Packet → Set<Packet>`. Exact and total for dup-free
//!   policies (star computed as a least fixpoint over the finite set of
//!   reachable packets). [`eval_set`], which it calls, reads `dup` as the
//!   identity, which is what reachability needs.
//! * [`eval_history`] — the full semantics over packet *histories*
//!   (`dup` records the current packet). Star is again a least fixpoint;
//!   it terminates whenever the set of reachable histories is finite and
//!   is guarded by an explicit `fuel` bound otherwise.

use crate::ast::{Packet, Policy};
use std::collections::BTreeSet;

/// Evaluate a dup-free policy on one packet, yielding the set of output
/// packets. Panics if the policy contains `dup` (use [`eval_history`]).
pub fn eval_packet(policy: &Policy, pkt: Packet) -> BTreeSet<Packet> {
    assert!(
        !policy.has_dup(),
        "eval_packet requires a dup-free policy; use eval_history"
    );
    eval_set(policy, &BTreeSet::from([pkt]))
}

/// Evaluate a policy on a *set* of packets. `dup` only archives the
/// packet into the history, which this semantics does not keep, so it
/// reads as the identity on the current packet, as symbolic reach does;
/// the result is then the set of current packets [`eval_history`] ends
/// with.
pub fn eval_set(policy: &Policy, pkts: &BTreeSet<Packet>) -> BTreeSet<Packet> {
    match policy {
        Policy::Filter(a) => pkts.iter().copied().filter(|p| a.eval(p)).collect(),
        Policy::Mod(f, n) => pkts.iter().map(|p| p.with(*f, *n)).collect(),
        Policy::Union(ps) => ps.iter().flat_map(|p| eval_set(p, pkts)).collect(),
        Policy::Seq(ps) => ps.iter().fold(pkts.clone(), |mid, p| eval_set(p, &mid)),
        Policy::Star(p) => {
            // Least fixpoint: accumulate until no new packets appear.
            // Terminates: the reachable packet set is finite (fields can
            // only take values written by some Mod or present initially).
            let mut acc = pkts.clone();
            let mut frontier = pkts.clone();
            while !frontier.is_empty() {
                let next = eval_set(p, &frontier);
                frontier = next.difference(&acc).copied().collect();
                acc.extend(frontier.iter().copied());
            }
            acc
        }
        Policy::Dup => pkts.clone(),
    }
}

/// A packet history: `current` plus recorded past packets, newest first.
/// Histories are NetKAT's semantic domain; `dup` archives the current
/// packet onto the past.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct History {
    /// The packet being processed.
    pub current: Packet,
    /// Previously recorded packets, newest first.
    pub past: Vec<Packet>,
}

impl History {
    /// A fresh history containing just `pkt`.
    pub fn new(pkt: Packet) -> History {
        History {
            current: pkt,
            past: Vec::new(),
        }
    }

    /// Length including the current packet.
    pub fn len(&self) -> usize {
        1 + self.past.len()
    }

    /// Histories are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Error from the history evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuelExhausted;

impl std::fmt::Display for FuelExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "history evaluation exceeded its fuel bound")
    }
}

impl std::error::Error for FuelExhausted {}

/// Evaluate the full NetKAT semantics on a history. `fuel` bounds the
/// number of fixpoint iterations of each `star` (policies that keep
/// `dup`-ing inside a star generate unboundedly long histories).
pub fn eval_history(
    policy: &Policy,
    h: History,
    fuel: usize,
) -> Result<BTreeSet<History>, FuelExhausted> {
    eval_hist_set(policy, &BTreeSet::from([h]), fuel)
}

fn eval_hist_set(
    policy: &Policy,
    hs: &BTreeSet<History>,
    fuel: usize,
) -> Result<BTreeSet<History>, FuelExhausted> {
    Ok(match policy {
        Policy::Filter(a) => hs.iter().filter(|h| a.eval(&h.current)).cloned().collect(),
        Policy::Mod(f, n) => hs
            .iter()
            .map(|h| History {
                current: h.current.with(*f, *n),
                past: h.past.clone(),
            })
            .collect(),
        Policy::Union(ps) => {
            let mut out = BTreeSet::new();
            for p in ps {
                out.extend(eval_hist_set(p, hs, fuel)?);
            }
            out
        }
        Policy::Seq(ps) => {
            let mut mid = hs.clone();
            for p in ps {
                mid = eval_hist_set(p, &mid, fuel)?;
            }
            mid
        }
        Policy::Star(p) => {
            let mut acc = hs.clone();
            let mut frontier = hs.clone();
            let mut rounds = 0usize;
            while !frontier.is_empty() {
                if rounds >= fuel {
                    return Err(FuelExhausted);
                }
                rounds += 1;
                let next = eval_hist_set(p, &frontier, fuel)?;
                frontier = next.difference(&acc).cloned().collect();
                acc.extend(frontier.iter().cloned());
            }
            acc
        }
        Policy::Dup => hs
            .iter()
            .map(|h| {
                let mut past = h.past.clone();
                past.insert(0, h.current);
                History {
                    current: h.current,
                    past,
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Field, Pred};

    fn pkt(sw: u32, pt: u32) -> Packet {
        Packet::of(&[(Field::Switch, sw), (Field::Port, pt)])
    }

    #[test]
    fn filter_keeps_matching() {
        let p = Policy::filter(Pred::test(Field::Switch, 1));
        assert_eq!(eval_packet(&p, pkt(1, 0)), BTreeSet::from([pkt(1, 0)]));
        assert!(eval_packet(&p, pkt(2, 0)).is_empty());
    }

    #[test]
    fn mod_overwrites() {
        let p = Policy::assign(Field::Port, 7);
        assert_eq!(eval_packet(&p, pkt(1, 0)), BTreeSet::from([pkt(1, 7)]));
    }

    #[test]
    fn union_copies() {
        let p = Policy::assign(Field::Port, 1).union(Policy::assign(Field::Port, 2));
        assert_eq!(
            eval_packet(&p, pkt(1, 0)),
            BTreeSet::from([pkt(1, 1), pkt(1, 2)])
        );
    }

    #[test]
    fn seq_threads() {
        let p = Policy::assign(Field::Port, 1).seq(Policy::filter(Pred::test(Field::Port, 1)));
        assert_eq!(eval_packet(&p, pkt(1, 0)), BTreeSet::from([pkt(1, 1)]));
        let q = Policy::assign(Field::Port, 2).seq(Policy::filter(Pred::test(Field::Port, 1)));
        assert!(eval_packet(&q, pkt(1, 0)).is_empty());
    }

    #[test]
    fn star_zero_or_more() {
        // (sw := sw+1 is inexpressible; use a cycle: 1→2→3→1 via guarded mods)
        let step = Policy::any([
            Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2)),
            Policy::filter(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Switch, 3)),
        ]);
        let out = eval_packet(&step.star(), pkt(1, 0));
        assert_eq!(out, BTreeSet::from([pkt(1, 0), pkt(2, 0), pkt(3, 0)]));
    }

    #[test]
    fn star_with_cycle_terminates() {
        let step = Policy::any([
            Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2)),
            Policy::filter(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Switch, 1)),
        ]);
        let out = eval_packet(&step.star(), pkt(1, 0));
        assert_eq!(out, BTreeSet::from([pkt(1, 0), pkt(2, 0)]));
    }

    #[test]
    #[should_panic(expected = "dup-free")]
    fn eval_packet_rejects_dup() {
        eval_packet(&Policy::Dup, pkt(1, 0));
    }

    #[test]
    fn dup_records_history() {
        let p = Policy::Dup
            .seq(Policy::assign(Field::Port, 9))
            .seq(Policy::Dup);
        let out = eval_history(&p, History::new(pkt(1, 0)), 16).unwrap();
        assert_eq!(out.len(), 1);
        let h = out.iter().next().unwrap();
        assert_eq!(h.current, pkt(1, 9));
        assert_eq!(h.past, vec![pkt(1, 9), pkt(1, 0)]);
    }

    #[test]
    fn history_star_fuel_guard() {
        // (dup)* generates ever-longer histories: must hit the fuel bound.
        let p = Policy::Dup.star();
        assert_eq!(
            eval_history(&p, History::new(pkt(1, 0)), 8),
            Err(FuelExhausted)
        );
    }

    #[test]
    fn history_of_forwarding_path() {
        // Topology-style program: at sw1 → record and move to sw2; at sw2
        // → record and move to sw3.
        let hop = |from: u32, to: u32| {
            Policy::filter(Pred::test(Field::Switch, from))
                .seq(Policy::Dup)
                .seq(Policy::assign(Field::Switch, to))
        };
        let net = hop(1, 2).union(hop(2, 3));
        let out = eval_history(&net.star(), History::new(pkt(1, 0)), 16).unwrap();
        // One of the reachable histories is the full two-hop trace ending
        // at sw3 having passed sw1 and sw2.
        assert!(out
            .iter()
            .any(|h| { h.current == pkt(3, 0) && h.past == vec![pkt(2, 0), pkt(1, 0)] }));
    }

    #[test]
    fn drop_annihilates_and_id_preserves() {
        let any = pkt(4, 4);
        assert!(eval_packet(&Policy::drop(), any).is_empty());
        assert_eq!(eval_packet(&Policy::id(), any), BTreeSet::from([any]));
    }
}
