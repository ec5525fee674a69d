//! The per-thread symbolic session that every query of this crate runs in.
//!
//! A controller asks many questions of one fabric: reach from every leaf,
//! a slice per switch, equivalence after each rewrite. A session keeps,
//! per thread, one [`Arena`] per variable order that holds a compiled
//! transformer. A query runs in the arena for the order
//! [`Arena::for_policies`] picks for its policies, so its answers are
//! those a fresh arena gives; only the work differs.
//!
//! * **Scratch.** The nodes and memo entries a query makes roll back when
//!   it returns. When the query kept a new transformer, the arena is
//!   instead compacted to the nodes the kept transformers reach. An arena
//!   that keeps nothing is dropped.
//! * **What is kept.** A policy's whole transformer is kept from its
//!   second use on, so a policy asked about once costs what it did
//!   without a session. On first use an equivalence or counterexample
//!   compiles it as scratch, and a reach query searches by policy images,
//!   which costs less than compiling the step. A conversion under a guard
//!   other than `true` always stays scratch and counts no use: it
//!   converts only the part of the policy the guard leaves live, which
//!   for a leaf's slice is a few nodes where the kept transformer of the
//!   whole fabric has hundreds.
//! * **An exact key.** From the first query that counts a use of a
//!   policy, the session keeps its syntax as a token string, one byte per
//!   tag, operand count and small value, and finds it again by comparing
//!   token strings. It is written by plain recursion: a chain is one node
//!   however long, so the walk is as deep as the policy is nested.
//!   Slices count no use, so they take no entry.
//! * **One bound rule.** When a query returns and the session holds more
//!   than [`MAX_ORDERS`] arenas, [`MAX_POLICIES`] counted policies or
//!   [`MAX_KEPT_NODES`] kept nodes over all its arenas, it starts over:
//!   it forgets every policy and arena and keeps its books, and the
//!   restart counts as an eviction. A transformer whose nodes alone
//!   exceed [`MAX_KEPT_NODES`] is not kept, and reaches over its policy
//!   search by images from then on. The bounds are safety limits, not a
//!   cache policy: a `pdabench verify` round at 64 leaves uses 5 orders,
//!   counts 28 policies (the fabric, its two rewrites and 25 distinct
//!   corpus policies) and keeps 164 nodes, and no measured workload
//!   evicts anything. A one-off pair with another variable order runs in
//!   an arena of its own, which is dropped when the pair returns.
//! * **Panics.** The session is taken out of its thread-local slot while
//!   a query runs, so a query that panics drops it, and the next query
//!   starts from an empty session.

use super::{fan_out_order, Arena, Sp, Spp, SymError, SymStats};
use crate::ast::{Policy, Pred};
use std::cell::RefCell;

/// Arenas (variable orders) one session holds.
const MAX_ORDERS: usize = 8;
/// Policies whose uses one session counts.
const MAX_POLICIES: usize = 64;
/// Nodes the session keeps between queries, over all its arenas. The
/// 1024-leaf fabric's step alone is 2,051.
const MAX_KEPT_NODES: usize = 1 << 12;

thread_local! {
    static SESSION: RefCell<Option<Session>> = const { RefCell::new(None) };
}

/// This thread's session books: the operation counters of its arenas and
/// its own counters. They start over when a panic drops the session.
pub fn session_stats() -> SymStats {
    SESSION
        .try_with(|s| s.borrow().as_ref().map(Session::stats))
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Nodes this thread's session holds between queries, over all its arenas.
pub fn session_node_count() -> usize {
    SESSION
        .try_with(|s| s.borrow().as_ref().map_or(0, Session::kept_nodes))
        .unwrap_or(0)
}

/// Run `query` over `policies` in this thread's session.
pub(crate) fn run<R>(policies: &[&Policy], query: impl FnOnce(&mut Query<'_>) -> R) -> R {
    let taken = SESSION.try_with(|s| s.borrow_mut().take()).ok().flatten();
    let mut session = taken.unwrap_or_default();
    let out = session.run(policies, query);
    let _ = SESSION.try_with(|s| *s.borrow_mut() = Some(session));
    out
}

#[derive(Default)]
struct Session {
    /// Policies whose uses are counted.
    known: Vec<Known>,
    /// Arenas that keep at least one transformer.
    slots: Vec<Slot>,
    books: SymStats,
    /// Reused buffers: a policy's tokens, the pairs it assigns, and the
    /// pairs the query's policies assign together.
    tokens: Vec<u8>,
    assigned: Vec<(u16, u32)>,
    all: Vec<(u16, u32)>,
}

/// A policy whose uses the session counts.
struct Known {
    /// Its syntax as [`tokenize`] writes it: the key it is found by.
    tokens: Box<[u8]>,
    /// The distinct `(field, value)` pairs it assigns, sorted.
    assigned: Box<[(u16, u32)]>,
    /// Queries that asked for its transformer or searched with it.
    uses: u32,
    /// Its transformer alone exceeds [`MAX_KEPT_NODES`], so it is never
    /// kept.
    oversize: bool,
}

/// One variable order: its arena and the transformers kept in it.
struct Slot {
    arena: Arena,
    kept: Vec<Kept>,
}

/// A known policy's transformer in one arena.
struct Kept {
    /// The policy's [`Session::known`] index.
    policy: usize,
    transformer: Spp,
}

/// One policy of a query, as the session sees it.
struct Seen {
    /// Its [`Session::known`] index, once it is known.
    known: Option<usize>,
    /// Its entry, while it is not known: made known when the query counts
    /// a use of it.
    entry: Option<Known>,
    dup: bool,
}

/// A query's view of the session: the arena for its variable order and
/// its policies.
pub(crate) struct Query<'s> {
    slot: &'s mut Slot,
    known: &'s mut Vec<Known>,
    books: &'s mut SymStats,
    policies: &'s [&'s Policy],
    seen: Vec<Seen>,
    /// Some policy was converted from its syntax.
    cold: bool,
    /// Kept transformers served.
    hits: u32,
}

impl Query<'_> {
    /// The arena the query runs in.
    pub(crate) fn arena(&mut self) -> &mut Arena {
        &mut self.slot.arena
    }

    /// Does any policy of the query contain `dup`?
    pub(crate) fn has_dup(&self) -> bool {
        self.seen.iter().any(|s| s.dup)
    }

    /// The transformer of the query's `i`th policy: the kept one, else
    /// compiled, and kept from the policy's second use on.
    pub(crate) fn transformer(&mut self, i: usize) -> Result<Spp, SymError> {
        if let Some(t) = self.kept(i) {
            return Ok(t);
        }
        let keep = self.reused(i);
        self.compile(i, keep)
    }

    /// The transformer of `filter g ; p` for the query's `i`th policy `p`:
    /// [`Query::transformer`] when `g` is `FULL`, else converted under the
    /// guard as scratch.
    pub(crate) fn transformer_under(&mut self, g: Sp, i: usize) -> Result<Spp, SymError> {
        if g == Sp::FULL {
            return self.transformer(i);
        }
        self.cold = true;
        self.slot.arena.spp_from_policy_under(g, self.policies[i])
    }

    /// The compiled step of a reach query over the query's `i`th policy:
    /// the kept transformer, or one compiled and kept now from the
    /// policy's second use on. `None` means search by policy images: on
    /// the first use, and for a step with `dup`, one that fails to
    /// compile or one too large to keep.
    pub(crate) fn reach_step(&mut self, i: usize) -> Option<Spp> {
        if let Some(t) = self.kept(i) {
            return Some(t);
        }
        if !self.reused(i) || self.seen[i].dup {
            self.cold = true;
            return None;
        }
        self.compile(i, true).ok()
    }

    /// The [`Session::known`] index of the query's `i`th policy, made
    /// known now if `insert`. An earlier policy of the same query may
    /// have made it known since the session saw it.
    fn index(&mut self, i: usize, insert: bool) -> Option<usize> {
        let seen = &mut self.seen[i];
        let Some(entry) = &seen.entry else {
            return seen.known;
        };
        let k = match self.known.iter().position(|k| k.tokens == entry.tokens) {
            Some(k) => k,
            None if insert => {
                self.known.extend(seen.entry.take());
                self.known.len() - 1
            }
            None => return None,
        };
        seen.known = Some(k);
        seen.entry = None;
        Some(k)
    }

    /// Count a use of the query's `i`th policy. True from its second use
    /// on, unless its transformer is too large to keep.
    fn reused(&mut self, i: usize) -> bool {
        let Some(k) = self.index(i, true) else {
            return false;
        };
        let known = &mut self.known[k];
        known.uses = known.uses.saturating_add(1);
        known.uses >= 2 && !known.oversize
    }

    /// The kept transformer of the query's `i`th policy.
    fn kept(&mut self, i: usize) -> Option<Spp> {
        let k = self.index(i, false)?;
        let kept = self.slot.kept.iter().find(|x| x.policy == k)?;
        self.hits += 1;
        Some(kept.transformer)
    }

    /// Compile the query's `i`th policy, and keep the transformer if
    /// `keep` and it fits the session alone.
    fn compile(&mut self, i: usize, keep: bool) -> Result<Spp, SymError> {
        self.cold = true;
        let transformer = self.slot.arena.spp_from_policy(self.policies[i])?;
        if let (true, Some(k)) = (keep, self.seen[i].known) {
            self.books.transformers_compiled += 1;
            if self.slot.arena.spp_nodes_reached(&[transformer]) > MAX_KEPT_NODES {
                self.known[k].oversize = true;
                self.books.evictions += 1;
            } else {
                self.slot.kept.push(Kept {
                    policy: k,
                    transformer,
                });
            }
        }
        Ok(transformer)
    }
}

impl Session {
    fn stats(&self) -> SymStats {
        let mut s = self.books;
        s.transformers_kept = self.slots.iter().map(|x| x.kept.len() as u64).sum();
        s
    }

    /// Nodes kept between queries, over all arenas: a query leaves no SP
    /// node behind, and only the SPP nodes its kept transformers reach.
    fn kept_nodes(&self) -> usize {
        let nodes = |x: &Slot| x.arena.sp_node_count() + x.arena.spp_node_count();
        self.slots.iter().map(nodes).sum()
    }

    fn run<R>(&mut self, policies: &[&Policy], query: impl FnOnce(&mut Query<'_>) -> R) -> R {
        self.all.clear();
        let seen: Vec<Seen> = policies.iter().map(|p| self.see(p)).collect();
        let order = fan_out_order(&self.all);
        let slot = match self.slots.iter().position(|s| s.arena.order == order) {
            Some(slot) => slot,
            None => {
                let arena = Arena::with_order(order);
                let kept = Vec::new();
                self.slots.push(Slot { arena, kept });
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[slot];
        let (mark, held) = (slot.arena.mark(), slot.kept.len());
        let mut q = Query {
            slot: &mut *slot,
            known: &mut self.known,
            books: &mut self.books,
            policies,
            seen,
            cold: false,
            hits: 0,
        };
        let out = query(&mut q);
        let (cold, hits) = (q.cold, q.hits);

        let books = &mut self.books;
        if cold || hits == 0 {
            books.cold_queries += 1;
        } else {
            books.warm_queries += 1;
        }
        if slot.kept.is_empty() {
            // Dropped below, scratch and all.
            let nodes = slot.arena.sp_node_count() + slot.arena.spp_node_count();
            books.nodes_rolled_back += nodes as u64;
        } else if slot.kept.len() > held {
            books.compactions += 1;
            books.nodes_rolled_back += slot.compact() as u64;
        } else {
            books.nodes_rolled_back += slot.arena.rollback(mark) as u64;
        }
        books.add_arena(std::mem::take(&mut slot.arena.stats));
        self.slots.retain(|s| !s.kept.is_empty());
        if self.slots.len() > MAX_ORDERS
            || self.known.len() > MAX_POLICIES
            || self.kept_nodes() > MAX_KEPT_NODES
        {
            self.slots.clear();
            self.known.clear();
            self.books.evictions += 1;
        }
        out
    }

    /// How this query sees `p`, found among the known policies by its
    /// tokens, and merges the pairs `p` assigns into [`Session::all`].
    fn see(&mut self, p: &Policy) -> Seen {
        self.tokens.clear();
        self.assigned.clear();
        let dup = tokenize(p, &mut self.tokens, &mut self.assigned);
        let tokens = &self.tokens[..];
        let known = self.known.iter().position(|k| *k.tokens == *tokens);
        let mut entry = None;
        let assigned = match known {
            Some(k) => &self.known[k].assigned,
            None => {
                self.assigned.sort_unstable();
                self.assigned.dedup();
                let entry = entry.insert(Known {
                    tokens: tokens.into(),
                    assigned: self.assigned[..].into(),
                    uses: 0,
                    oversize: false,
                });
                &entry.assigned
            }
        };
        if self.all.is_empty() {
            self.all.extend_from_slice(assigned);
        } else {
            self.all = sorted_union(&self.all, assigned);
        }
        Seen { known, entry, dup }
    }
}

impl Slot {
    /// Compact the arena to the nodes the kept transformers reach.
    /// Returns the number of nodes dropped.
    fn compact(&mut self) -> usize {
        let mut roots: Vec<Spp> = self.kept.iter().map(|k| k.transformer).collect();
        let dropped = self.arena.compact(&mut roots);
        for (k, r) in self.kept.iter_mut().zip(roots) {
            k.transformer = r;
        }
        dropped
    }
}

/// The union of two sorted, duplicate-free lists, sorted.
fn sorted_union<T: Copy + Ord>(a: &[T], b: &[T]) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        i += usize::from(a[i] == x);
        j += usize::from(b[j] == x);
        out.push(x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

// Token tags, one byte each; `MOD` and `TEST` carry the field in the bits
// above the tag and are followed by the value, and the four chains by
// their number of operands.
const FILTER: u8 = 0;
const MOD: u8 = 1;
const UNION: u8 = 2;
const SEQ: u8 = 3;
const STAR: u8 = 4;
const DUP: u8 = 5;
const TRUE: u8 = 6;
const FALSE: u8 = 7;
const TEST: u8 = 8;
const AND: u8 = 9;
const OR: u8 = 10;
const NOT: u8 = 11;

/// Append `v` in seven-bit groups, low group first, each but the last
/// with its high bit set: a prefix-free code, so that a value costs one
/// byte below 128 and token strings stay comparable byte by byte.
fn put_value(tokens: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        tokens.push(v as u8 | 0x80);
        v >>= 7;
    }
    tokens.push(v as u8);
}

/// Append `p`'s syntax to `tokens` in prefix order, where every tag has a
/// fixed arity or is followed by it, so equal token strings mean equal
/// policies. Pushes each `(field, value)` that `p` assigns to `assigned`
/// and returns whether `p` contains `dup`.
pub(super) fn tokenize(p: &Policy, tokens: &mut Vec<u8>, assigned: &mut Vec<(u16, u32)>) -> bool {
    match p {
        Policy::Filter(a) => {
            tokens.push(FILTER);
            tokenize_pred(a, tokens);
            false
        }
        Policy::Mod(f, v) => {
            tokens.push(MOD | (f.index() as u8) << 4);
            put_value(tokens, u64::from(*v));
            assigned.push((f.index() as u16, *v));
            false
        }
        Policy::Union(ps) | Policy::Seq(ps) => {
            tokens.push(if matches!(p, Policy::Union(..)) {
                UNION
            } else {
                SEQ
            });
            put_value(tokens, ps.len() as u64);
            let mut dup = false;
            for p in ps {
                dup |= tokenize(p, tokens, assigned);
            }
            dup
        }
        Policy::Star(x) => {
            tokens.push(STAR);
            tokenize(x, tokens, assigned)
        }
        Policy::Dup => {
            tokens.push(DUP);
            true
        }
    }
}

/// [`tokenize`] for a predicate.
fn tokenize_pred(a: &Pred, tokens: &mut Vec<u8>) {
    match a {
        Pred::True => tokens.push(TRUE),
        Pred::False => tokens.push(FALSE),
        Pred::Test(f, v) => {
            tokens.push(TEST | (f.index() as u8) << 4);
            put_value(tokens, u64::from(*v));
        }
        Pred::And(xs) | Pred::Or(xs) => {
            tokens.push(if matches!(a, Pred::And(..)) { AND } else { OR });
            put_value(tokens, xs.len() as u64);
            xs.iter().for_each(|x| tokenize_pred(x, tokens));
        }
        Pred::Not(x) => {
            tokens.push(NOT);
            tokenize_pred(x, tokens);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{fabric_step, fabric_step_redundant};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A query that panics after filling the arena with scratch drops the
    /// session, so the next query starts empty and answers correctly.
    #[test]
    fn a_panic_inside_a_query_drops_the_session() {
        std::thread::spawn(|| {
            let (p, q) = (fabric_step(8), fabric_step_redundant(8));
            let compile = |s: &mut Query<'_>| (s.transformer(0), s.transformer(1));
            let first = run(&[&p, &q], compile);
            assert_eq!(run(&[&p, &q], compile), first);
            assert!(session_stats().transformers_kept > 0);
            let panicked = catch_unwind(AssertUnwindSafe(|| {
                run(&[&p], |s| {
                    let g = s.arena().sp_test(0, 1);
                    s.transformer_under(g, 0).expect("dup-free");
                    panic!("a query that breaks half way");
                })
            }));
            assert!(panicked.is_err());
            assert_eq!(session_stats(), SymStats::default());
            assert_eq!(session_node_count(), 0);
            let (a, b) = run(&[&p, &q], compile);
            assert_eq!(a, b, "the fabric and its rewrite are equivalent");
        })
        .join()
        .expect("session thread");
    }

    /// A step whose transformer alone exceeds [`MAX_KEPT_NODES`] is
    /// compiled once, on its second use, and not kept; later reaches
    /// search by images instead of compiling it again.
    #[test]
    fn a_step_too_large_to_keep_is_searched_by_images() {
        use crate::ast::{Field, Packet};
        use crate::reach::can_reach;
        use std::collections::BTreeSet;
        std::thread::spawn(|| {
            // One SPP node per source value, under a root that tests it.
            let rules = (0..MAX_KEPT_NODES as u32 + 8).map(|a| {
                Policy::filter(Pred::test(Field::Src, a)).seq(Policy::assign(Field::Port, a))
            });
            let big = Policy::any(rules);
            let init = BTreeSet::from([Packet::of(&[(Field::Src, 3)])]);
            for _ in 0..4 {
                assert!(can_reach(&big, &init, &Pred::test(Field::Port, 3)));
                assert!(!can_reach(&big, &init, &Pred::test(Field::Port, 4)));
            }
            let s = session_stats();
            assert_eq!(s.transformers_compiled, 1);
            assert_eq!(s.transformers_kept, 0);
            assert_eq!(s.evictions, 1);
            assert_eq!(s.warm_queries, 0);
            assert_eq!(session_node_count(), 0);
        })
        .join()
        .expect("session thread");
    }

    #[test]
    fn tokens_tell_policies_apart() {
        use crate::ast::{Field, Pred};
        let key = |p: &Policy| {
            let mut tokens = Vec::new();
            tokenize(p, &mut tokens, &mut Vec::new());
            tokens
        };
        let a = Policy::filter(Pred::test(Field::Dst, 1)).seq(Policy::assign(Field::Port, 2));
        let b = Policy::filter(Pred::test(Field::Dst, 1)).union(Policy::assign(Field::Port, 2));
        let c = Policy::filter(Pred::test(Field::Src, 1)).seq(Policy::assign(Field::Port, 2));
        let d = Policy::assign(Field::Port, 2).seq(Policy::filter(Pred::test(Field::Dst, 1)));
        // Two unequal policies, built by hand, with the same leaves in order.
        let (x, y) = (Policy::Dup, Policy::assign(Field::Port, 2));
        let flat = Policy::Seq(vec![x.clone(), x.clone(), y.clone()]);
        let nested = Policy::Seq(vec![x.clone(), Policy::Seq(vec![x, y])]);
        let keys = [key(&a), key(&b), key(&c), key(&d), key(&flat), key(&nested)];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(key(&a), key(&a.clone()));
    }
}
