//! The per-thread symbolic session that every query of this crate runs in.
//!
//! A controller asks many questions of one fabric: reach from every leaf,
//! a slice per switch, equivalence after each rewrite. A session keeps,
//! per thread, one [`Arena`] per variable order that holds a compiled
//! transformer, under an exact structural key: the policy's syntax as a
//! token string. A query runs in the arena for the order
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
//!   whole fabric has hundreds. A counted policy is known by a keyed hash
//!   of its token string; the string itself is stored only with a kept
//!   transformer, which is served on an exact match alone.
//! * **Bounds.** At most [`MAX_ORDERS`] arenas, [`MAX_POLICIES`] counted
//!   policies and [`MAX_KEPT_NODES`] kept nodes over all arenas; past a
//!   bound the least recently used arena, policy or transformer goes, and
//!   a transformer that does not fit alone is never kept again. Which
//!   query came first never matters: a one-off pair with another variable
//!   order lands in an arena of its own and evicts nothing.
//! * **Panics.** The session is taken out of its thread-local slot while
//!   a query runs, so a query that panics drops it, and the next query
//!   starts from an empty session.

use super::{fan_out_order, Arena, Sp, Spp, SymError, SymStats, WordKeys, NETKAT_FIELDS};
use crate::ast::{Policy, Pred};
use std::cell::RefCell;
use std::hash::BuildHasher;

/// Arenas (variable orders) one session holds. A `pdabench verify` round
/// at 64 leaves uses 5, the fabric family's among them.
const MAX_ORDERS: usize = 8;
/// Policies whose uses one session counts. The same round counts 28:
/// the fabric, its two rewrites and 25 distinct corpus policies (slices
/// convert under a guard and are not counted).
const MAX_POLICIES: usize = 64;
/// Nodes the session keeps between queries, over all its arenas. The
/// same round keeps 164; the 1024-leaf fabric's step alone is 2,051
/// nodes. A transformer that does not fit is never kept again.
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
    /// Queries run so far; the clock of the least-recently-used rules.
    clock: u64,
    books: SymStats,
    /// Ids handed to known policies so far.
    ids: u64,
    /// Keys for hashing token strings.
    keys: WordKeys,
    /// Reused buffers: a policy's tokens, the pairs it assigns, and the
    /// pairs the query's policies assign together.
    tokens: Vec<u32>,
    assigned: Vec<(u16, u32)>,
    all: Vec<(u16, u32)>,
}

/// A policy whose uses the session counts, found by a hash of its token
/// string. A hash only counts uses; the string itself is kept beside a
/// kept transformer, which is served only on an exact match.
struct Known {
    id: u64,
    hash: u64,
    /// Queries that asked for its transformer or searched with it.
    uses: u32,
    last_use: u64,
    exact: Option<Exact>,
    /// Its transformer once did not fit in [`MAX_KEPT_NODES`], so it is
    /// never kept again.
    oversize: bool,
}

/// A policy's exact key: its syntax as [`tokenize`] writes it, and the
/// distinct `(field, value)` pairs it assigns, sorted.
struct Exact {
    tokens: Box<[u32]>,
    assigned: Box<[(u16, u32)]>,
}

impl Exact {
    fn of(p: &Policy) -> Exact {
        let (mut tokens, mut assigned) = (Vec::new(), Vec::new());
        tokenize(p, &mut tokens, &mut assigned);
        assigned.sort_unstable();
        assigned.dedup();
        Exact {
            tokens: tokens.into(),
            assigned: assigned.into(),
        }
    }
}

/// One variable order: its arena and the transformers kept in it.
struct Slot {
    arena: Arena,
    kept: Vec<Kept>,
    last_use: u64,
}

/// A known policy's transformer in one arena.
struct Kept {
    /// The policy's [`Known::id`].
    policy: u64,
    transformer: Spp,
    last_use: u64,
}

/// One policy of a query, as the session sees it.
#[derive(Clone, Copy)]
struct Seen {
    /// The hash of its tokens.
    hash: u64,
    /// Its [`Session::known`] index, once it is known.
    known: Option<usize>,
    /// Its hash is a kept policy's whose tokens differ: it is served
    /// nothing and its uses are not counted.
    collides: bool,
    dup: bool,
}

/// A query's view of the session: the arena for its variable order and
/// its policies.
pub(crate) struct Query<'s> {
    slot: &'s mut Slot,
    known: &'s mut Vec<Known>,
    ids: &'s mut u64,
    policies: &'s [&'s Policy],
    seen: Vec<Seen>,
    now: u64,
    /// Some policy was converted from its syntax.
    cold: bool,
    /// Kept transformers served.
    hits: u32,
    /// Transformers compiled to keep.
    compiled: u64,
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
    /// have made it known, and kept it, since the session saw it.
    fn index(&mut self, i: usize, insert: bool) -> Option<usize> {
        let seen = self.seen[i];
        if seen.known.is_some() || seen.collides {
            return seen.known;
        }
        let k = match self.known.iter().position(|k| k.hash == seen.hash) {
            Some(k) => {
                if let Some(e) = &self.known[k].exact {
                    let mut tokens = Vec::new();
                    tokenize(self.policies[i], &mut tokens, &mut Vec::new());
                    if *e.tokens != *tokens {
                        self.seen[i].collides = true;
                        return None;
                    }
                }
                k
            }
            None if insert => {
                *self.ids += 1;
                self.known.push(Known {
                    id: *self.ids,
                    hash: seen.hash,
                    uses: 0,
                    last_use: self.now,
                    exact: None,
                    oversize: false,
                });
                self.known.len() - 1
            }
            None => return None,
        };
        self.seen[i].known = Some(k);
        Some(k)
    }

    /// Count a use of the query's `i`th policy. True from its second use
    /// on, unless its transformer once did not fit the session.
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
        let id = self.known[k].id;
        let k = self.slot.kept.iter_mut().find(|k| k.policy == id)?;
        k.last_use = self.now;
        self.hits += 1;
        Some(k.transformer)
    }

    /// Compile the query's `i`th policy, and keep the transformer if
    /// `keep`.
    fn compile(&mut self, i: usize, keep: bool) -> Result<Spp, SymError> {
        self.cold = true;
        let transformer = self.slot.arena.spp_from_policy(self.policies[i])?;
        if let (true, Some(k)) = (keep, self.seen[i].known) {
            let known = &mut self.known[k];
            known
                .exact
                .get_or_insert_with(|| Exact::of(self.policies[i]));
            self.slot.kept.push(Kept {
                policy: known.id,
                transformer,
                last_use: self.now,
            });
            self.compiled += 1;
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
        self.clock += 1;
        let now = self.clock;
        let mut seen = Vec::with_capacity(policies.len());
        let mut all = std::mem::take(&mut self.all);
        for p in policies {
            seen.push(self.see(p, now));
            if seen.len() == 1 {
                all.clone_from(&self.assigned);
            } else {
                all = sorted_union(&all, &self.assigned);
            }
        }
        let order = fan_out_order(&all);
        self.all = all;
        let slot = self.slot_for(order, now);
        let slot = &mut self.slots[slot];
        let mark = slot.arena.mark();
        let mut q = Query {
            slot: &mut *slot,
            known: &mut self.known,
            ids: &mut self.ids,
            policies,
            seen,
            now,
            cold: false,
            hits: 0,
            compiled: 0,
        };
        let out = query(&mut q);
        let (cold, hits, compiled) = (q.cold, q.hits, q.compiled);

        let books = &mut self.books;
        if cold || hits == 0 {
            books.cold_queries += 1;
        } else {
            books.warm_queries += 1;
        }
        books.transformers_compiled += compiled;
        if compiled > 0 {
            books.compactions += 1;
            books.nodes_rolled_back += slot.compact() as u64;
        } else if slot.kept.is_empty() {
            // Dropped below, scratch and all.
            let nodes = slot.arena.sp_node_count() + slot.arena.spp_node_count();
            books.nodes_rolled_back += nodes as u64;
        } else {
            books.nodes_rolled_back += slot.arena.rollback(mark) as u64;
        }
        books.add_arena(std::mem::take(&mut slot.arena.stats));
        // An arena that keeps nothing goes before the node bound counts
        // its scratch; one that evictions empty goes after.
        self.slots.retain(|s| !s.kept.is_empty());
        self.evict_policies();
        self.evict_nodes(now);
        self.slots.retain(|s| !s.kept.is_empty());
        out
    }

    /// How this query sees `p`. Leaves the distinct `(field, value)` pairs
    /// `p` assigns in [`Session::assigned`], sorted. A policy with a kept
    /// transformer is found by its exact key, any other known one by the
    /// hash of its tokens; a policy not known yet becomes known only when
    /// the query counts a use of it.
    fn see(&mut self, p: &Policy, now: u64) -> Seen {
        self.tokens.clear();
        self.assigned.clear();
        let dup = tokenize(p, &mut self.tokens, &mut self.assigned);
        let tokens = &self.tokens[..];
        let kept = self.known.iter().enumerate().find_map(|(i, k)| {
            let e = k.exact.as_ref()?;
            (*e.tokens == *tokens).then_some((i, e))
        });
        if let Some((i, e)) = kept {
            self.assigned.clear();
            self.assigned.extend_from_slice(&e.assigned);
            let known = &mut self.known[i];
            known.last_use = now;
            return Seen {
                hash: known.hash,
                known: Some(i),
                collides: false,
                dup,
            };
        }
        self.assigned.sort_unstable();
        self.assigned.dedup();
        let hash = self.keys.hash_one(tokens);
        let mut seen = Seen {
            hash,
            known: None,
            collides: false,
            dup,
        };
        if let Some(i) = self.known.iter().position(|k| k.hash == hash) {
            let known = &mut self.known[i];
            // A hash that matches a kept policy's but not its tokens names
            // another policy.
            seen.collides = known.exact.is_some();
            if !seen.collides {
                known.last_use = now;
                seen.known = Some(i);
            }
        }
        seen
    }

    /// The index of the slot for `order`, made (and the least recently
    /// used slot dropped past [`MAX_ORDERS`]) if there is none.
    fn slot_for(&mut self, order: [u16; NETKAT_FIELDS], now: u64) -> usize {
        let found = self.slots.iter().position(|s| s.arena.order == order);
        let i = found.unwrap_or_else(|| {
            if self.slots.len() >= MAX_ORDERS {
                let lru = (0..self.slots.len()).min_by_key(|&i| self.slots[i].last_use);
                let gone = self.slots.swap_remove(lru.unwrap_or(0));
                self.books.add_arena(gone.arena.stats);
                self.books.evictions += 1;
            }
            self.slots.push(Slot {
                arena: Arena::with_order(order),
                kept: Vec::new(),
                last_use: now,
            });
            self.slots.len() - 1
        });
        self.slots[i].last_use = now;
        i
    }

    /// Drop the least recently used kept transformers, over all arenas,
    /// until the nodes kept fit in [`MAX_KEPT_NODES`], compacting each
    /// arena that loses one. A transformer this query used that does not
    /// fit is never kept again.
    fn evict_nodes(&mut self, now: u64) {
        while self.kept_nodes() > MAX_KEPT_NODES {
            let held = self.slots.iter().enumerate().flat_map(|(s, slot)| {
                let kept = slot.kept.iter().enumerate();
                kept.map(move |(k, kept)| (kept.last_use, s, k))
            });
            let Some((_, s, k)) = held.min() else {
                break;
            };
            let gone = self.slots[s].kept.swap_remove(k);
            if gone.last_use == now {
                if let Some(known) = self.known.iter_mut().find(|k| k.id == gone.policy) {
                    known.oversize = true;
                }
            }
            self.books.evictions += 1;
            self.books.compactions += 1;
            self.books.nodes_rolled_back += self.slots[s].compact() as u64;
        }
    }

    /// Forget the least recently used policies past [`MAX_POLICIES`], with
    /// their transformers, and compact the arenas that held one.
    fn evict_policies(&mut self) {
        while self.known.len() > MAX_POLICIES {
            let lru = (0..self.known.len()).min_by_key(|&i| self.known[i].last_use);
            let gone = self.known.swap_remove(lru.unwrap_or(0));
            self.books.evictions += 1;
            for slot in &mut self.slots {
                let held = slot.kept.len();
                slot.kept.retain(|k| k.policy != gone.id);
                if slot.kept.len() < held {
                    self.books.compactions += 1;
                    self.books.nodes_rolled_back += slot.compact() as u64;
                }
            }
        }
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

// Token tags; `MOD` and `TEST` carry the field in the bits above the tag
// and are followed by the value.
const FILTER: u32 = 0;
const MOD: u32 = 1;
const UNION: u32 = 2;
const SEQ: u32 = 3;
const STAR: u32 = 4;
const DUP: u32 = 5;
const TRUE: u32 = 6;
const FALSE: u32 = 7;
const TEST: u32 = 8;
const AND: u32 = 9;
const OR: u32 = 10;
const NOT: u32 = 11;

/// Append `p`'s syntax to `tokens` in prefix order, where every tag has a
/// fixed arity, so equal token strings mean equal policies. Pushes each
/// `(field, value)` that `p` assigns to `assigned` and returns whether
/// `p` contains `dup`. The walk keeps its stack on the heap, so a chain
/// of any length costs no call depth.
pub(super) fn tokenize(p: &Policy, tokens: &mut Vec<u32>, assigned: &mut Vec<(u16, u32)>) -> bool {
    enum Term<'a> {
        P(&'a Policy),
        A(&'a Pred),
    }
    let mut dup = false;
    let mut stack = vec![Term::P(p)];
    while let Some(t) = stack.pop() {
        match t {
            Term::P(p) => match p {
                Policy::Filter(a) => {
                    tokens.push(FILTER);
                    stack.push(Term::A(a));
                }
                Policy::Mod(f, v) => {
                    tokens.extend([MOD | (f.index() as u32) << 4, *v]);
                    assigned.push((f.index() as u16, *v));
                }
                Policy::Union(l, r) | Policy::Seq(l, r) => {
                    tokens.push(if matches!(p, Policy::Union(..)) {
                        UNION
                    } else {
                        SEQ
                    });
                    stack.extend([Term::P(r), Term::P(l)]);
                }
                Policy::Star(x) => {
                    tokens.push(STAR);
                    stack.push(Term::P(x));
                }
                Policy::Dup => {
                    tokens.push(DUP);
                    dup = true;
                }
            },
            Term::A(a) => match a {
                Pred::True => tokens.push(TRUE),
                Pred::False => tokens.push(FALSE),
                Pred::Test(f, v) => tokens.extend([TEST | (f.index() as u32) << 4, *v]),
                Pred::And(l, r) | Pred::Or(l, r) => {
                    tokens.push(if matches!(a, Pred::And(..)) { AND } else { OR });
                    stack.extend([Term::A(r), Term::A(l)]);
                }
                Pred::Not(x) => {
                    tokens.push(NOT);
                    stack.push(Term::A(x));
                }
            },
        }
    }
    dup
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
        let keys = [key(&a), key(&b), key(&c), key(&d)];
        for (i, x) in keys.iter().enumerate() {
            for y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
        assert_eq!(key(&a), key(&a.clone()));
    }
}
