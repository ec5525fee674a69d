//! Reachability analysis over NetKAT step policies.
//!
//! The standard NetKAT encoding of a network is `in ; (p ; t)* ; p ; out`
//! where `p` is the union of switch policies and `t` the topology
//! relation. The hybrid Copland+NetKAT compiler (the paper's §5.1) needs
//! two queries over this encoding:
//!
//! * **Reachability** (`Prim3`): can traffic satisfying a predicate reach
//!   a node satisfying another predicate? Used to check that a collector
//!   of evidence is reachable by its producers before deploying a policy.
//! * **Path witnesses** (`Prim1`/`Prim2`): concrete hop sequences that
//!   realize `∗⇒`, used to resolve abstract places (`∀hop`) to the actual
//!   switches along a forwarding path.
//!
//! Both queries default to the **symbolic** backend: a breadth-first
//! search over symbolic packet-*set* frontiers ([`Arena`]) in the
//! thread's session ([`sym::session_stats`]). The first time the session
//! sees a step, each layer is the image of the last computed by
//! structural recursion over the policy ([`Arena::push_policy`]), so the
//! step's transformer is never built and a rule the frontier cannot
//! match costs one empty intersection. From the step's second use on,
//! the session holds its compiled transformer and each layer is one
//! [`Arena::push`]. Witness paths walk the BFS layers backwards through
//! the preimage ([`Arena::pre_policy`] or [`Arena::pre`]). `dup` only
//! archives the packet into the history, so both queries treat it as the
//! identity on the current packet, and a step with `dup` is always
//! searched by images. The original enumerative evaluators remain as
//! `*_enumerative` and serve as the differential oracle; they read `dup`
//! as the identity too ([`eval_set`]).

use crate::ast::{Field, Packet, Policy, Pred};
use crate::semantics::eval_set;
use crate::sym::{self, Arena, Query, Sp, Spp};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// All packets reachable from `init` under zero or more applications of
/// `step` (enumerative: materializes the concrete set).
pub fn reachable(step: &Policy, init: &BTreeSet<Packet>) -> BTreeSet<Packet> {
    eval_set(&step.clone().star(), init)
}

/// Does some packet in `init` eventually satisfy `goal` under `step*`?
/// Symbolic: fixpoint over packet-set images.
pub fn can_reach(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> bool {
    sym::run(&[step], |s| search(s, step, init, goal).is_some())
}

/// Enumerative oracle for [`can_reach`].
pub fn can_reach_enumerative(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> bool {
    reachable(step, init).iter().any(|p| goal.eval(p))
}

/// The image of a packet set under one step: through the compiled step
/// when the session has one, else by structural recursion over the
/// policy.
#[derive(Clone, Copy)]
struct Step<'p> {
    policy: &'p Policy,
    compiled: Option<Spp>,
}

impl Step<'_> {
    fn push(self, ar: &mut Arena, s: Sp) -> Sp {
        match self.compiled {
            Some(t) => ar.push(s, t),
            None => ar.push_policy(s, self.policy),
        }
    }

    fn pre(self, ar: &mut Arena, s: Sp) -> Sp {
        match self.compiled {
            Some(t) => ar.pre(t, s),
            None => ar.pre_policy(self.policy, s),
        }
    }
}

/// Symbolic BFS from `init` under `step` in the session's arena. When
/// some packet reaches `goal`, returns the step's images, the layers
/// (`layers[i]` holds the packets first reached at distance `i`) and the
/// goal packets of the last one.
fn search<'p>(
    s: &mut Query<'_>,
    step: &'p Policy,
    init: &BTreeSet<Packet>,
    goal: &Pred,
) -> Option<(Step<'p>, Vec<Sp>, Sp)> {
    let step = Step {
        policy: step,
        compiled: s.reach_step(0),
    };
    let ar = s.arena();
    let goal_sp = ar.sp_from_pred(goal);
    let mut acc = Sp::EMPTY;
    for pkt in init {
        let vals = ar.values_of_packet(pkt);
        let s = ar.sp_singleton(&vals);
        acc = ar.sp_union(acc, s);
    }
    let mut layers = vec![acc];
    let mut frontier = acc;
    loop {
        let hit = ar.sp_intersect(frontier, goal_sp);
        if !ar.sp_is_empty(hit) {
            return Some((step, layers, hit));
        }
        let next = step.push(ar, frontier);
        frontier = ar.sp_diff(next, acc);
        if ar.sp_is_empty(frontier) {
            return None;
        }
        acc = ar.sp_union(acc, frontier);
        layers.push(frontier);
    }
}

/// Shortest witness trace: a sequence of packets `π₀ … πₖ` with
/// `π₀ ∈ init`, each `πᵢ₊₁` an output of `step` on `πᵢ`, and `goal(πₖ)`.
/// Returns `None` when unreachable. Symbolic: BFS layers of packet-set
/// images, reconstructed backwards through the preimage operator.
pub fn witness_path(step: &Policy, init: &BTreeSet<Packet>, goal: &Pred) -> Option<Vec<Packet>> {
    sym::run(&[step], |s| {
        let (step, layers, hit) = search(s, step, init, goal)?;
        let ar = s.arena();
        // Backward reconstruction: pick a goal packet, then repeatedly
        // pick a predecessor from the previous layer via the preimage.
        let mut cur = ar.sp_witness(hit).expect("non-empty hit layer");
        let mut path = vec![ar.packet_of_values(&cur)];
        for &layer in layers.iter().rev().skip(1) {
            let cur_sp = ar.sp_singleton(&cur);
            let prev = step.pre(ar, cur_sp);
            let cand = ar.sp_intersect(prev, layer);
            cur = ar
                .sp_witness(cand)
                .expect("every BFS layer packet has a predecessor in the prior layer");
            path.push(ar.packet_of_values(&cur));
        }
        path.reverse();
        Some(path)
    })
}

/// Enumerative oracle for [`witness_path`] (explicit BFS with a
/// predecessor map).
pub fn witness_path_enumerative(
    step: &Policy,
    init: &BTreeSet<Packet>,
    goal: &Pred,
) -> Option<Vec<Packet>> {
    let mut pred: BTreeMap<Packet, Option<Packet>> = BTreeMap::new();
    let mut queue = VecDeque::new();
    for &p in init {
        pred.insert(p, None);
        queue.push_back(p);
        if goal.eval(&p) {
            return Some(vec![p]);
        }
    }
    while let Some(cur) = queue.pop_front() {
        let outs = eval_set(step, &BTreeSet::from([cur]));
        for nxt in outs {
            if pred.contains_key(&nxt) {
                continue;
            }
            pred.insert(nxt, Some(cur));
            if goal.eval(&nxt) {
                // Reconstruct.
                let mut path = vec![nxt];
                let mut at = nxt;
                while let Some(Some(prev)) = pred.get(&at) {
                    path.push(*prev);
                    at = *prev;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(nxt);
        }
    }
    None
}

/// The switch ids visited along a witness path (deduplicated consecutive
/// repeats — a switch applying only header rewrites stays one hop).
pub fn switches_along(path: &[Packet]) -> Vec<u32> {
    let mut out: Vec<u32> = Vec::new();
    for p in path {
        let sw = p.get(Field::Switch);
        if out.last() != Some(&sw) {
            out.push(sw);
        }
    }
    out
}

/// Convenience: encode a directed link `(sw_a, pt_a) → (sw_b, pt_b)` as a
/// NetKAT topology term.
pub fn link(sw_a: u32, pt_a: u32, sw_b: u32, pt_b: u32) -> Policy {
    Policy::filter(Pred::test(Field::Switch, sw_a).and(Pred::test(Field::Port, pt_a)))
        .seq(Policy::assign(Field::Switch, sw_b))
        .seq(Policy::assign(Field::Port, pt_b))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Linear topology 1 → 2 → 3: each switch forwards out port 1; links
    /// deliver to the next switch's port 0.
    fn linear3() -> (Policy, Policy) {
        let fwd = Policy::assign(Field::Port, 1); // every switch: send out pt 1
        let topo = link(1, 1, 2, 0).union(link(2, 1, 3, 0));
        (fwd, topo)
    }

    fn at_switch(sw: u32) -> Pred {
        Pred::test(Field::Switch, sw)
    }

    #[test]
    fn linear_reachability() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        assert!(can_reach(&step, &init, &at_switch(3)));
        assert!(!can_reach(&step, &init, &at_switch(4)));
        assert!(can_reach_enumerative(&step, &init, &at_switch(3)));
        assert!(!can_reach_enumerative(&step, &init, &at_switch(4)));
    }

    #[test]
    fn witness_path_is_shortest_and_valid() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        let path = witness_path(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(switches_along(&path), vec![1, 2, 3]);
        // Each hop must actually be a step output of its predecessor.
        for w in path.windows(2) {
            let outs = eval_set(&step, &BTreeSet::from([w[0]]));
            assert!(outs.contains(&w[1]), "invalid hop {:?} → {:?}", w[0], w[1]);
        }
        // Same length as the enumerative BFS (both are shortest).
        let oracle = witness_path_enumerative(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(path.len(), oracle.len());
    }

    #[test]
    fn dup_steps_answer_as_with_id() {
        let (fwd, topo) = linear3();
        let plain = fwd.clone().seq(topo.clone());
        let step = Policy::Dup.seq(fwd).seq(Policy::Dup.star()).seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        assert!(can_reach(&step, &init, &at_switch(3)));
        assert!(!can_reach(&step, &init, &at_switch(4)));
        assert_eq!(
            witness_path(&step, &init, &at_switch(3)),
            witness_path(&plain, &init, &at_switch(3))
        );
    }

    #[test]
    fn unreachable_returns_none() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 3), (Field::Port, 0)])]);
        // Switch 3 has no outgoing link.
        assert_eq!(witness_path(&step, &init, &at_switch(1)), None);
        assert_eq!(witness_path_enumerative(&step, &init, &at_switch(1)), None);
    }

    #[test]
    fn goal_in_initial_set() {
        let (fwd, topo) = linear3();
        let step = fwd.seq(topo);
        let p = Packet::of(&[(Field::Switch, 2), (Field::Port, 0)]);
        let path = witness_path(&step, &BTreeSet::from([p]), &at_switch(2)).unwrap();
        assert_eq!(path, vec![p]);
    }

    #[test]
    fn branching_topology_finds_either_branch() {
        // 1 → 2 and 1 → 3 (ports 1 and 2 respectively).
        let fwd = Policy::assign(Field::Port, 1).union(Policy::assign(Field::Port, 2));
        let topo = link(1, 1, 2, 0).union(link(1, 2, 3, 0));
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        assert!(can_reach(&step, &init, &at_switch(2)));
        assert!(can_reach(&step, &init, &at_switch(3)));
        let path = witness_path(&step, &init, &at_switch(3)).unwrap();
        assert_eq!(switches_along(&path), vec![1, 3]);
    }

    #[test]
    fn cycles_handled() {
        // 1 → 2 → 1 ring; 3 unreachable.
        let fwd = Policy::assign(Field::Port, 1);
        let topo = link(1, 1, 2, 0).union(link(2, 1, 1, 0));
        let step = fwd.seq(topo);
        let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1), (Field::Port, 0)])]);
        let r = reachable(&step, &init);
        assert!(r.iter().any(|p| p.get(Field::Switch) == 2));
        assert!(!can_reach(&step, &init, &at_switch(3)));
    }

    #[test]
    fn filtering_step_blocks_traffic() {
        // Firewall at switch 2 drops proto 6.
        let fwd = Policy::assign(Field::Port, 1);
        let fw = Policy::filter(
            Pred::test(Field::Switch, 2)
                .and(Pred::test(Field::Proto, 6))
                .not(),
        );
        let topo = link(1, 1, 2, 0).union(link(2, 1, 3, 0));
        let step = fw.seq(fwd).seq(topo);
        let blocked = BTreeSet::from([Packet::of(&[
            (Field::Switch, 1),
            (Field::Port, 0),
            (Field::Proto, 6),
        ])]);
        let allowed = BTreeSet::from([Packet::of(&[
            (Field::Switch, 1),
            (Field::Port, 0),
            (Field::Proto, 17),
        ])]);
        assert!(!can_reach(&step, &blocked, &at_switch(3)));
        assert!(can_reach(&step, &allowed, &at_switch(3)));
    }

    #[test]
    fn symbolic_matches_enumerative_on_fabric() {
        use crate::corpus::fabric_step;
        let step = fabric_step(6);
        let init = BTreeSet::from([Packet::of(&[
            (Field::Switch, 3),
            (Field::Port, 0),
            (Field::Dst, 5),
        ])]);
        for goal_sw in [0u32, 3, 5, 6] {
            let goal = at_switch(goal_sw);
            assert_eq!(
                can_reach(&step, &init, &goal),
                can_reach_enumerative(&step, &init, &goal),
                "goal sw={goal_sw}"
            );
        }
        let p = witness_path(&step, &init, &at_switch(5)).unwrap();
        let o = witness_path_enumerative(&step, &init, &at_switch(5)).unwrap();
        assert_eq!(p.len(), o.len());
    }
}
