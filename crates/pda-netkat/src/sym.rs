//! Symbolic packet sets and packet transformers (KATch-style SP/SPP).
//!
//! The enumerative decision procedure in [`crate::equiv`] enumerates a
//! finite model whose size is the product of the per-field constant
//! domains — hopeless for thousand-switch fabrics. This module implements
//! the symbolic representation KATch introduced for NetKAT: BDD-like,
//! hash-consed, *canonical* decision structures ordered by field, so that
//! semantic equivalence of two structures built in the same [`Arena`] is
//! **pointer (id) equality**.
//!
//! Two node spaces share one arena:
//!
//! * **SP** — a symbolic *packet set* (a predicate denotation). An SP node
//!   `⟨f, branches, default⟩` tests field `f`: a packet with `pkt[f] = v`
//!   continues into `branches[v]` when present, `default` otherwise.
//!   Leaves are [`Sp::EMPTY`] and [`Sp::FULL`].
//! * **SPP** — a symbolic *packet transformer* (a dup-free policy
//!   denotation: a relation between input and output packets). An SPP node
//!   `⟨f, branches, muts, id⟩` relates input value `v` to output value `w`
//!   as follows: if `v ∈ dom(branches)` the pair continues into
//!   `branches[v][w]` (absent ⇒ reject); otherwise the *untested* row
//!   applies — `w = v` continues into `id`, `w ≠ v` into `muts[w]`
//!   (absent ⇒ reject). Leaves are [`Spp::ZERO`] (the empty relation) and
//!   [`Spp::ONE`] (identity on all remaining fields).
//!
//! # Canonical form
//!
//! Constructors enforce, and interning exploits, the following rules:
//!
//! 1. children live at strictly greater field indices (field-ordered);
//! 2. `ZERO` children are erased from SPP output maps and `muts`
//!    (absence means rejection), and SP branches equal to the node's
//!    `default` are erased;
//! 3. an SPP branch equal to the *effective default row* at its value
//!    (`muts` minus that value, plus `value → id` when `id ≠ ZERO`) is
//!    erased;
//! 4. a node with no residual branches (and, for SPP, no `muts`) collapses
//!    to its default / `id` — an untested field is skipped entirely.
//!
//! The `(muts, id)` pair is uniquely determined by the relation's behaviour
//! on the infinitely many untested values, and the branch set is minimal by
//! rule 3, so *every dup-free transformer has exactly one representation*:
//! equivalence checking is `Spp` id comparison. The differential property
//! tests in `tests/sym_diff.rs` cross-validate this against the
//! enumerative oracle.
//!
//! # Storage and kernels
//!
//! A node is stored once, behind an `Rc` shared by the id-indexed node
//! vector and the intern table, and its rows are vectors sorted by value:
//! an SP node's `branches`, an SPP node's `muts`, its tested `branches`,
//! and each tested row's outputs. Operations read rows where they lie. A
//! memoized operation holds its operands' nodes (one reference-count bump
//! each), walks their rows with two-pointer merges and binary search, and
//! builds its result directly as sorted vectors, which the canonical
//! constructors prune and intern. The effective default row of rule 3 is
//! never built: it is read as `muts` split around the input value, with
//! `value → id` between the halves. Where several continuations meet at
//! one output value (the rows of `spp_seq`, the buckets of `push`), the
//! gathered pairs are sorted stably by value and each run is folded left
//! to right with union, in the order the pairs were produced.
//!
//! The memo table and both intern tables hash with one word-at-a-time
//! hasher: each word is folded in with a 64×64→128-bit multiply by a key
//! the arena draws from [`RandomState`]. Intern keys carry constants from
//! policy text and table entries, so the hash stays keyed. SipHash pays
//! its full cost on every call, and a derived `Hash` makes one call per
//! field and row entry: with it, the same kernels run at about two thirds
//! of the throughput. Answers never depend on the keys: canonical form
//! fixes every node, and witnesses visit candidate values in ascending
//! order.
//!
//! # Star termination
//!
//! [`Arena::spp_star`] iterates squaring: `s₀ = 1 ∪ p`,
//! `sₖ₊₁ = sₖ ; sₖ`, stopping when the id is stable. `sₖ` denotes paths of
//! length `≤ 2ᵏ`, and all iterates mention only the field values occurring
//! in `p`, so the chain lives in a finite lattice and is monotone — after
//! `⌈log₂ d⌉` rounds (`d` = the longest simple path through the finite
//! packet space over those values) it is the Kleene closure. The budgeted
//! variant [`Arena::spp_star_bounded`] surfaces the iteration count and
//! returns an error instead of looping if the budget is ever exceeded;
//! iteration counts are in [`Arena::stats`].
//!
//! # Sessions
//!
//! The query functions of this crate (`can_reach`, `witness_path`,
//! `counterexample_under` and the functions built on it, `slice_is_dead`)
//! run in a per-thread session rather than in an arena of their own; see
//! the `session` module and [`session_stats`].

use crate::ast::{Field, Packet, Policy, Pred};
use std::collections::hash_map::RandomState;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasher, Hasher};
use std::iter::Peekable;
use std::rc::Rc;

mod session;

pub(crate) use session::{run, Query};
pub use session::{session_node_count, session_stats};

/// A symbolic packet set: an interned index into an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Sp(u32);

impl Sp {
    /// The empty packet set.
    pub const EMPTY: Sp = Sp(0);
    /// The set of all packets.
    pub const FULL: Sp = Sp(1);
}

/// A symbolic packet transformer: an interned index into an [`Arena`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Spp(u32);

impl Spp {
    /// The empty relation (drop).
    pub const ZERO: Spp = Spp(0);
    /// The identity relation (skip).
    pub const ONE: Spp = Spp(1);
}

#[derive(PartialEq, Eq, Hash)]
struct SpNode {
    field: u16,
    branches: Vec<(u64, Sp)>,
    default: Sp,
}

impl SpNode {
    /// The child a packet with value `v` at this node's field continues into.
    fn child(&self, v: u64) -> Sp {
        match self.branches.binary_search_by_key(&v, |b| b.0) {
            Ok(i) => self.branches[i].1,
            Err(_) => self.default,
        }
    }
}

/// An SPP node. Its tested rows lie back to back in one slice, so a
/// node is three allocations however many values it tests.
#[derive(Clone, PartialEq, Eq, Hash)]
struct SppNode {
    field: u16,
    /// Tested input values, ascending, each with the end of its row in
    /// `outs`.
    tested: Box<[(u64, u32)]>,
    /// The tested rows, in the order of `tested`.
    outs: Box<[(u64, Spp)]>,
    muts: Box<[(u64, Spp)]>,
    id: Spp,
}

impl SppNode {
    fn branches(&self) -> Branches<'_> {
        Branches {
            tested: &self.tested,
            outs: &self.outs,
        }
    }

    fn row(&self, v: u64) -> Row<'_> {
        Row::at(self.branches(), &self.muts, self.id, v)
    }

    /// Every child id, rows and `id` alike.
    fn children(&self) -> impl Iterator<Item = Spp> + '_ {
        let rows = self.outs.iter().chain(self.muts.iter());
        rows.map(|e| e.1).chain(std::iter::once(self.id))
    }

    /// Rewrite every child id through `f`.
    fn remap(&mut self, f: impl Fn(Spp) -> Spp) {
        for e in self.outs.iter_mut().chain(self.muts.iter_mut()) {
            e.1 = f(e.1);
        }
        self.id = f(self.id);
    }
}

/// The tested rows of an SPP node, read where the node stores them.
#[derive(Clone, Copy)]
struct Branches<'a> {
    tested: &'a [(u64, u32)],
    outs: &'a [(u64, Spp)],
}

impl<'a> Branches<'a> {
    const NONE: Branches<'static> = Branches {
        tested: &[],
        outs: &[],
    };

    /// Each tested value with its row, ascending by value.
    fn iter(self) -> impl Iterator<Item = (u64, &'a [(u64, Spp)])> + 'a {
        let outs = self.outs;
        self.tested.iter().scan(0, move |start, &(v, end)| {
            let row = &outs[*start as usize..end as usize];
            *start = end;
            Some((v, row))
        })
    }

    /// The row of tested value `v`.
    fn get(self, v: u64) -> Option<&'a [(u64, Spp)]> {
        let i = self.tested.binary_search_by_key(&v, |t| t.0).ok()?;
        let start = i.checked_sub(1).map_or(0, |j| self.tested[j].1);
        Some(&self.outs[start as usize..self.tested[i].1 as usize])
    }

    fn keys(self) -> impl Iterator<Item = u64> + 'a {
        self.tested.iter().map(|t| t.0)
    }
}

/// The output map of one SPP row, read where the arena stores it: `lo`,
/// then `mid`, then `hi`, ascending by output value and free of `ZERO`.
/// A tested row is all `lo`. The effective default row at input `v` is
/// the node's `muts` split around `v`, with `v → id` in the middle when
/// `id ≠ ZERO` (rule 3 of the module doc).
#[derive(Clone, Copy)]
struct Row<'a> {
    lo: &'a [(u64, Spp)],
    mid: Option<(u64, Spp)>,
    hi: &'a [(u64, Spp)],
}

impl<'a> Row<'a> {
    fn tested(row: &'a [(u64, Spp)]) -> Row<'a> {
        Row {
            lo: row,
            mid: None,
            hi: &[],
        }
    }

    fn default_at(muts: &'a [(u64, Spp)], id: Spp, v: u64) -> Row<'a> {
        let i = muts.partition_point(|m| m.0 < v);
        let j = if muts.get(i).is_some_and(|m| m.0 == v) {
            i + 1
        } else {
            i
        };
        Row {
            lo: &muts[..i],
            mid: (id != Spp::ZERO).then_some((v, id)),
            hi: &muts[j..],
        }
    }

    /// The row of input `v` in a node with these parts.
    fn at(branches: Branches<'a>, muts: &'a [(u64, Spp)], id: Spp, v: u64) -> Row<'a> {
        match branches.get(v) {
            Some(row) => Row::tested(row),
            None => Row::default_at(muts, id, v),
        }
    }

    fn iter(self) -> impl Iterator<Item = (u64, Spp)> + 'a {
        let (lo, hi) = (self.lo, self.hi);
        lo.iter().copied().chain(self.mid).chain(hi.iter().copied())
    }

    fn get(self, w: u64) -> Option<Spp> {
        let find = |r: &[(u64, Spp)]| r.binary_search_by_key(&w, |e| e.0).ok().map(|i| r[i].1);
        find(self.lo)
            .or_else(|| self.mid.filter(|m| m.0 == w).map(|m| m.1))
            .or_else(|| find(self.hi))
    }
}

/// The rows of an SP operand at a field, borrowed from the arena: its
/// node's when it tests that field, otherwise no branches and the operand
/// itself as the default.
struct SpRows {
    node: Option<Rc<SpNode>>,
    default: Sp,
}

impl SpRows {
    fn branches(&self) -> &[(u64, Sp)] {
        self.node.as_ref().map_or(&[], |n| &n.branches)
    }

    fn child(&self, v: u64) -> Sp {
        self.node.as_ref().map_or(self.default, |n| n.child(v))
    }
}

/// The rows of an SPP operand at a field, borrowed from the arena: its
/// node's when it tests that field, otherwise no branches, no `muts`, and
/// the operand itself as `id` (`ZERO` rejects everything; `ONE` or a
/// deeper node is the identity here).
struct SppRows {
    node: Option<Rc<SppNode>>,
    id: Spp,
}

impl SppRows {
    fn branches(&self) -> Branches<'_> {
        self.node.as_ref().map_or(Branches::NONE, |n| n.branches())
    }

    fn muts(&self) -> &[(u64, Spp)] {
        self.node.as_ref().map_or(&[], |n| &n.muts)
    }

    fn row(&self, v: u64) -> Row<'_> {
        Row::at(self.branches(), self.muts(), self.id, v)
    }

    /// `v`'s tested row if the merge found one, else the default row.
    fn row_or_default<'a>(&'a self, v: u64, tested: Option<&'a [(u64, Spp)]>) -> Row<'a> {
        tested.map_or_else(|| Row::default_at(self.muts(), self.id, v), Row::tested)
    }
}

fn keys<T>(entries: &[(u64, T)]) -> impl Iterator<Item = u64> + '_ {
    entries.iter().map(|e| e.0)
}

/// The distinct values of `parts`, ascending.
fn sorted_keys(parts: impl Iterator<Item = u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = parts.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Two-pointer merge of two sequences ascending by value: each value
/// once, with what each side holds there.
struct Merge<I: Iterator, J: Iterator> {
    a: Peekable<I>,
    b: Peekable<J>,
}

fn merge<A, B, I, J>(a: I, b: J) -> Merge<I::IntoIter, J::IntoIter>
where
    I: IntoIterator<Item = (u64, A)>,
    J: IntoIterator<Item = (u64, B)>,
{
    Merge {
        a: a.into_iter().peekable(),
        b: b.into_iter().peekable(),
    }
}

impl<A, B, I, J> Iterator for Merge<I, J>
where
    I: Iterator<Item = (u64, A)>,
    J: Iterator<Item = (u64, B)>,
{
    type Item = (u64, Option<A>, Option<B>);

    fn next(&mut self) -> Option<Self::Item> {
        let v = match (self.a.peek(), self.b.peek()) {
            (None, None) => return None,
            (Some(x), Some(y)) => x.0.min(y.0),
            (Some(x), None) => x.0,
            (None, Some(y)) => y.0,
        };
        let a = self.a.next_if(|x| x.0 == v).map(|x| x.1);
        let b = self.b.next_if(|y| y.0 == v).map(|y| y.1);
        Some((v, a, b))
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Memo {
    SpUnion(u32, u32),
    SpInter(u32, u32),
    SpComp(u32),
    SppUnion(u32, u32),
    SppSeq(u32, u32),
    SppTest(u32),
    Push(u32, u32),
    Pre(u32, u32),
}

/// The keys of one arena's hash tables: one pair of words drawn from
/// [`RandomState`], shared by the memo table and both intern tables.
/// Intern keys carry constants from policy text and table entries, so
/// the hash stays keyed.
#[derive(Clone, Copy)]
struct WordKeys {
    seed: u64,
    mul: u64,
}

impl WordKeys {
    fn new() -> WordKeys {
        let rs = RandomState::new();
        WordKeys {
            seed: rs.hash_one(0u64),
            mul: rs.hash_one(1u64) | 1,
        }
    }
}

impl BuildHasher for WordKeys {
    type Hasher = WordHasher;

    fn build_hasher(&self) -> WordHasher {
        WordHasher {
            state: self.seed,
            mul: self.mul,
        }
    }
}

/// Folds each word written into the state with one keyed 64×64→128-bit
/// multiply, whose halves are XORed together. A derived `Hash` writes one
/// word per field and row entry, which is where SipHash spent its time.
struct WordHasher {
    state: u64,
    mul: u64,
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.state ^ x) * u128::from(self.mul);
        self.state = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

/// Operation counters of one arena ([`Arena::stats`]) or of this thread's
/// session ([`session_stats`]). An arena leaves the session books at zero;
/// the session sums its arenas' counters and keeps its own books.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct SymStats {
    /// Memoized operation results served from cache.
    pub cache_hits: u64,
    /// Operations that had to be computed.
    pub cache_misses: u64,
    /// Total star fixpoint (squaring) iterations across all star runs.
    pub star_iterations: u64,
    /// Number of star fixpoints computed.
    pub star_runs: u64,
    /// Session queries answered from kept transformers alone.
    pub warm_queries: u64,
    /// Session queries that converted some policy from its syntax.
    pub cold_queries: u64,
    /// Transformers the session compiled to keep.
    pub transformers_compiled: u64,
    /// Transformers the session holds now.
    pub transformers_kept: u64,
    /// Scratch nodes removed when a query returned.
    pub nodes_rolled_back: u64,
    /// Rebuilds of an arena down to the nodes its kept transformers reach.
    pub compactions: u64,
    /// Times the session started over because a query left it past one
    /// of its bounds (variable orders, counted policies, kept nodes), plus
    /// transformers compiled to keep that exceeded the node bound alone
    /// and were not kept.
    pub evictions: u64,
}

impl SymStats {
    /// Add `other`'s arena counters to these.
    fn add_arena(&mut self, other: SymStats) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.star_iterations += other.star_iterations;
        self.star_runs += other.star_runs;
    }
}

/// Star budget used by the panicking convenience wrapper. Squaring reaches
/// path length `2^128` here, far past any finite packet space a policy can
/// generate, so exceeding it indicates a broken canonical form.
pub const DEFAULT_STAR_BUDGET: u32 = 128;

/// Error from [`Arena::spp_star_bounded`]: the squaring fixpoint did not
/// stabilize within the given iteration budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarBudgetExceeded {
    /// Iterations performed before giving up.
    pub iterations: u32,
}

impl std::fmt::Display for StarBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "symbolic star fixpoint exceeded its budget after {} iterations",
            self.iterations
        )
    }
}

impl std::error::Error for StarBudgetExceeded {}

/// Error from converting a policy to symbolic form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SymError {
    /// The policy contains `dup`; only the dup-free fragment has a
    /// packet-transformer denotation.
    DupUnsupported,
    /// A star inside the policy exceeded the fixpoint budget.
    StarBudget(StarBudgetExceeded),
}

impl std::fmt::Display for SymError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SymError::DupUnsupported => {
                write!(f, "dup is not supported by the symbolic backend")
            }
            SymError::StarBudget(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SymError {}

/// A hash-consed arena of SP/SPP nodes over `num_fields` packet fields.
///
/// All structures built in one arena are canonical relative to it, so `==`
/// on [`Sp`]/[`Spp`] ids decides semantic equality. The arena is generic in
/// its field count: NetKAT uses [`Arena::for_netkat`] (the six
/// [`Field`]s); `pda-analyze` reuses it over table key columns.
///
/// Nodes are shared (`Rc`) between the id-indexed vectors and the intern
/// tables, so an arena is not `Send`; the crate's query functions keep
/// theirs in a per-thread session.
pub struct Arena {
    num_fields: u16,
    /// `order[slot]` = external field index stored at arena slot `slot`.
    /// Children in nodes are ordered by *slot*, so this is the variable
    /// order of the decision structure — like a BDD's, it decides node
    /// counts, not semantics. Identity unless built by
    /// [`Arena::for_policies`].
    order: Vec<u16>,
    /// Inverse of `order`: `slot_of[field]` = arena slot of that field.
    slot_of: Vec<u16>,
    sp_nodes: Vec<Rc<SpNode>>,
    sp_intern: HashMap<Rc<SpNode>, u32, WordKeys>,
    spp_nodes: Vec<Rc<SppNode>>,
    spp_intern: HashMap<Rc<SppNode>, u32, WordKeys>,
    memo: HashMap<Memo, u32, WordKeys>,
    stats: SymStats,
}

impl Arena {
    /// An empty arena over `num_fields` fields (field indices
    /// `0..num_fields`, identity variable order).
    pub fn new(num_fields: u16) -> Arena {
        let identity: Vec<u16> = (0..num_fields).collect();
        let keys = WordKeys::new();
        Arena {
            num_fields,
            order: identity.clone(),
            slot_of: identity,
            sp_nodes: Vec::new(),
            sp_intern: HashMap::with_hasher(keys),
            spp_nodes: Vec::new(),
            spp_intern: HashMap::with_hasher(keys),
            memo: HashMap::with_hasher(keys),
            stats: SymStats::default(),
        }
    }

    /// An arena over the NetKAT packet fields ([`Field::ALL`]) in their
    /// declaration order.
    pub fn for_netkat() -> Arena {
        Arena::new(Field::ALL.len() as u16)
    }

    /// A NetKAT arena whose variable order is chosen by inspecting the
    /// policies it will host.
    ///
    /// The order matters the way a BDD's does. A node's untested row can
    /// express "output = input" only through its single `id` child, so a
    /// transformer that assigns field `A` values *dispatched on a deeper
    /// field* `B` (e.g. `filter dst=j; sw:=j` for every `j`, with `sw`
    /// ordered above `dst`) forces an explicit branch per input value of
    /// `A`, each carrying the full fan-out — an O(n²)-sized root. Ordering
    /// `B` first makes the same relation a linear-size dispatch on `B`.
    ///
    /// Heuristic: fields are ordered by ascending *assignment fan-out*
    /// (the number of distinct constants the policies ever assign to the
    /// field), ties broken by declaration order. Tested-only fields come
    /// first and high-fan-out rewrite targets sink to the bottom, which
    /// turns thousand-switch fabric dispatch from quadratic-size nodes
    /// into linear ones (experiment E19).
    pub fn for_policies(ps: &[&Policy]) -> Arena {
        let mut assigned = Vec::new();
        let mut tokens = Vec::new();
        for p in ps {
            session::tokenize(p, &mut tokens, &mut assigned);
        }
        assigned.sort_unstable();
        assigned.dedup();
        Arena::with_order(fan_out_order(&assigned))
    }

    /// A NetKAT arena with variable order `order` (`order[slot]` = the
    /// field stored at that slot).
    fn with_order(order: [u16; NETKAT_FIELDS]) -> Arena {
        let mut ar = Arena::for_netkat();
        for (slot, &f) in order.iter().enumerate() {
            ar.slot_of[f as usize] = slot as u16;
        }
        ar.order = order.to_vec();
        ar
    }

    /// Number of fields this arena's structures range over.
    pub fn num_fields(&self) -> u16 {
        self.num_fields
    }

    /// Operation counters accumulated so far.
    pub fn stats(&self) -> SymStats {
        self.stats
    }

    /// Interned SP node count (excluding the two leaves).
    pub fn sp_node_count(&self) -> usize {
        self.sp_nodes.len()
    }

    /// Interned SPP node count (excluding the two leaves).
    pub fn spp_node_count(&self) -> usize {
        self.spp_nodes.len()
    }

    // ------------------------------------------------------------------
    // Interning, memoization and canonical constructors
    // ------------------------------------------------------------------

    fn intern_sp(&mut self, node: SpNode) -> Sp {
        if let Some(&id) = self.sp_intern.get(&node) {
            return Sp(id);
        }
        let id = u32::try_from(self.sp_nodes.len() + 2).expect("sp arena overflow");
        let node = Rc::new(node);
        self.sp_nodes.push(Rc::clone(&node));
        self.sp_intern.insert(node, id);
        Sp(id)
    }

    fn intern_spp(&mut self, node: SppNode) -> Spp {
        if let Some(&id) = self.spp_intern.get(&node) {
            return Spp(id);
        }
        let id = u32::try_from(self.spp_nodes.len() + 2).expect("spp arena overflow");
        let node = Rc::new(node);
        self.spp_nodes.push(Rc::clone(&node));
        self.spp_intern.insert(node, id);
        Spp(id)
    }

    /// The memoized result of `key`, computing it with `op` on a miss.
    fn memoized(&mut self, key: Memo, op: impl FnOnce(&mut Arena) -> u32) -> u32 {
        if let Some(&r) = self.memo.get(&key) {
            self.stats.cache_hits += 1;
            return r;
        }
        self.stats.cache_misses += 1;
        let r = op(self);
        self.memo.insert(key, r);
        r
    }

    // ------------------------------------------------------------------
    // Rollback and compaction (the session's scratch discipline)
    // ------------------------------------------------------------------

    /// The node counts a later [`Arena::rollback`] returns to.
    fn mark(&self) -> (usize, usize) {
        (self.sp_nodes.len(), self.spp_nodes.len())
    }

    /// Forget every node interned since `mark` and every memo entry
    /// (entries may name those nodes, whose ids will be reused). Returns
    /// the number of nodes removed.
    fn rollback(&mut self, (sp, spp): (usize, usize)) -> usize {
        let removed = self.sp_nodes.len() - sp + self.spp_nodes.len() - spp;
        for n in self.sp_nodes.drain(sp..) {
            self.sp_intern.remove(&*n);
        }
        for n in self.spp_nodes.drain(spp..) {
            self.spp_intern.remove(&*n);
        }
        self.memo.clear();
        removed
    }

    /// 1 at the index of each SPP node `roots` reach, 0 elsewhere.
    fn spp_reached(&self, roots: &[Spp]) -> Vec<u32> {
        let index = |x: Spp| (x.0 >= 2).then(|| (x.0 - 2) as usize);
        let mut reached = vec![0u32; self.spp_nodes.len()];
        let mut stack: Vec<usize> = roots.iter().filter_map(|&r| index(r)).collect();
        while let Some(i) = stack.pop() {
            if reached[i] == 0 {
                reached[i] = 1;
                stack.extend(self.spp_nodes[i].children().filter_map(index));
            }
        }
        reached
    }

    /// The number of SPP nodes `roots` reach: what compaction would keep.
    fn spp_nodes_reached(&self, roots: &[Spp]) -> usize {
        self.spp_reached(roots).iter().sum::<u32>() as usize
    }

    /// Keep only the SPP nodes reachable from `roots`, renumbered in id
    /// order (children precede parents, so they stay field-ordered and
    /// canonical), drop every SP node and memo entry, and rewrite `roots`
    /// to the new ids. Returns the number of nodes dropped.
    fn compact(&mut self, roots: &mut [Spp]) -> usize {
        let n = self.spp_nodes.len();
        let index = |x: Spp| (x.0 >= 2).then(|| (x.0 - 2) as usize);
        let mut new_id = self.spp_reached(roots);
        let mut next = 2;
        for id in new_id.iter_mut().filter(|id| **id != 0) {
            *id = next;
            next += 1;
        }
        let remap = |x: Spp| index(x).map_or(x, |i| Spp(new_id[i]));
        let dropped = n - (next - 2) as usize + self.sp_nodes.len();
        self.sp_intern.clear();
        self.sp_nodes.clear();
        self.spp_intern.clear();
        self.memo.clear();
        for (i, node) in std::mem::take(&mut self.spp_nodes).into_iter().enumerate() {
            if new_id[i] != 0 {
                let mut node = Rc::try_unwrap(node).unwrap_or_else(|n| SppNode::clone(&n));
                node.remap(remap);
                let node = Rc::new(node);
                self.spp_nodes.push(Rc::clone(&node));
                self.spp_intern.insert(node, new_id[i]);
            }
        }
        for r in roots {
            *r = remap(*r);
        }
        dropped
    }

    fn mk_sp(&mut self, field: u16, mut branches: Vec<(u64, Sp)>, default: Sp) -> Sp {
        branches.retain(|b| b.1 != default);
        if branches.is_empty() {
            return default;
        }
        self.intern_sp(SpNode {
            field,
            branches,
            default,
        })
    }

    /// The canonical node testing `field` with the rows `tested` points
    /// into `outs` (each tested value with the end of its row), the
    /// untested row `muts` and `id`: `ZERO` outputs and rows equal to the
    /// default row are dropped, and a node left with no rows is `id`.
    fn mk_spp(
        &mut self,
        field: u16,
        mut tested: Vec<(u64, u32)>,
        mut outs: Vec<(u64, Spp)>,
        mut muts: Vec<(u64, Spp)>,
        id: Spp,
    ) -> Spp {
        muts.retain(|m| m.1 != Spp::ZERO);
        let (mut rows, mut end, mut start) = (0, 0, 0);
        for i in 0..tested.len() {
            let (v, stop) = tested[i];
            let row_start = end;
            for j in start..stop as usize {
                if outs[j].1 != Spp::ZERO {
                    outs[end] = outs[j];
                    end += 1;
                }
            }
            start = stop as usize;
            let row = &outs[row_start..end];
            if row.iter().copied().eq(Row::default_at(&muts, id, v).iter()) {
                end = row_start;
            } else {
                tested[rows] = (v, end as u32);
                rows += 1;
            }
        }
        tested.truncate(rows);
        outs.truncate(end);
        if tested.is_empty() && muts.is_empty() {
            return id;
        }
        self.intern_spp(SppNode {
            field,
            tested: tested.into(),
            outs: outs.into(),
            muts: muts.into(),
            id,
        })
    }

    /// Sort the `(value, x)` pairs gathered for one row by value, keeping
    /// the order they were produced in among equal values, drop `unit`
    /// entries, and fold each run of equal values left to right with `op`.
    fn join_by_value<T: Copy + PartialEq>(
        &mut self,
        mut pairs: Vec<(u64, T)>,
        unit: T,
        op: fn(&mut Arena, T, T) -> T,
    ) -> Vec<(u64, T)> {
        pairs.retain(|p| p.1 != unit);
        pairs.sort_by_key(|p| p.0);
        pairs.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.1 = op(self, kept.1, next.1);
                true
            }
        });
        pairs
    }

    // ------------------------------------------------------------------
    // Operand rows (uniform expansion at a given field)
    // ------------------------------------------------------------------

    fn sp_field(&self, x: Sp) -> u16 {
        if x == Sp::EMPTY || x == Sp::FULL {
            u16::MAX
        } else {
            self.sp_nodes[(x.0 - 2) as usize].field
        }
    }

    fn spp_field(&self, x: Spp) -> u16 {
        if x == Spp::ZERO || x == Spp::ONE {
            u16::MAX
        } else {
            self.spp_nodes[(x.0 - 2) as usize].field
        }
    }

    fn sp_rows(&self, x: Sp, field: u16) -> SpRows {
        if self.sp_field(x) == field {
            let n = Rc::clone(&self.sp_nodes[(x.0 - 2) as usize]);
            SpRows {
                default: n.default,
                node: Some(n),
            }
        } else {
            // Leaf or a node at a deeper field: `field` is unconstrained.
            SpRows {
                node: None,
                default: x,
            }
        }
    }

    fn spp_rows(&self, x: Spp, field: u16) -> SppRows {
        if self.spp_field(x) == field {
            let n = Rc::clone(&self.spp_nodes[(x.0 - 2) as usize]);
            SppRows {
                id: n.id,
                node: Some(n),
            }
        } else {
            SppRows { node: None, id: x }
        }
    }

    // ------------------------------------------------------------------
    // SP operations
    // ------------------------------------------------------------------

    /// Set union.
    pub fn sp_union(&mut self, a: Sp, b: Sp) -> Sp {
        if a == b || b == Sp::EMPTY {
            return a;
        }
        if a == Sp::EMPTY {
            return b;
        }
        if a == Sp::FULL || b == Sp::FULL {
            return Sp::FULL;
        }
        let key = Memo::SpUnion(a.min(b).0, a.max(b).0);
        Sp(self.memoized(key, |ar| ar.sp_pointwise(a, b, Arena::sp_union).0))
    }

    /// Set intersection.
    pub fn sp_intersect(&mut self, a: Sp, b: Sp) -> Sp {
        if a == b || b == Sp::FULL {
            return a;
        }
        if a == Sp::FULL {
            return b;
        }
        if a == Sp::EMPTY || b == Sp::EMPTY {
            return Sp::EMPTY;
        }
        let key = Memo::SpInter(a.min(b).0, a.max(b).0);
        Sp(self.memoized(key, |ar| ar.sp_pointwise(a, b, Arena::sp_intersect).0))
    }

    /// `op` applied child by child: on every value either side tests, and
    /// on the defaults.
    fn sp_pointwise(&mut self, a: Sp, b: Sp, op: fn(&mut Arena, Sp, Sp) -> Sp) -> Sp {
        let f = self.sp_field(a).min(self.sp_field(b));
        let (va, vb) = (self.sp_rows(a, f), self.sp_rows(b, f));
        let branches = merge(va.branches().iter().copied(), vb.branches().iter().copied())
            .map(|(v, ca, cb)| {
                (
                    v,
                    op(self, ca.unwrap_or(va.default), cb.unwrap_or(vb.default)),
                )
            })
            .collect();
        let default = op(self, va.default, vb.default);
        self.mk_sp(f, branches, default)
    }

    /// Set complement.
    pub fn sp_complement(&mut self, a: Sp) -> Sp {
        if a == Sp::EMPTY {
            return Sp::FULL;
        }
        if a == Sp::FULL {
            return Sp::EMPTY;
        }
        Sp(self.memoized(Memo::SpComp(a.0), |ar| {
            let n = Rc::clone(&ar.sp_nodes[(a.0 - 2) as usize]);
            let branches = n
                .branches
                .iter()
                .map(|&(v, c)| (v, ar.sp_complement(c)))
                .collect();
            let default = ar.sp_complement(n.default);
            ar.mk_sp(n.field, branches, default).0
        }))
    }

    /// Set difference `a ∖ b`.
    pub fn sp_diff(&mut self, a: Sp, b: Sp) -> Sp {
        let nb = self.sp_complement(b);
        self.sp_intersect(a, nb)
    }

    /// Is the set empty? (Canonical form makes this an id test.)
    pub fn sp_is_empty(&self, a: Sp) -> bool {
        a == Sp::EMPTY
    }

    /// Does the set contain the packet `vals` (one value per field)?
    pub fn sp_contains(&self, a: Sp, vals: &[u64]) -> bool {
        let mut cur = a;
        loop {
            if cur == Sp::EMPTY {
                return false;
            }
            if cur == Sp::FULL {
                return true;
            }
            let n = &self.sp_nodes[(cur.0 - 2) as usize];
            cur = n.child(vals[n.field as usize]);
        }
    }

    /// Some packet in the set, if any.
    pub fn sp_witness(&self, a: Sp) -> Option<Vec<u64>> {
        let mut out = vec![0u64; self.num_fields as usize];
        if self.sp_witness_into(a, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn sp_witness_into(&self, a: Sp, out: &mut [u64]) -> bool {
        if a == Sp::EMPTY {
            return false;
        }
        if a == Sp::FULL {
            return true;
        }
        let n = &self.sp_nodes[(a.0 - 2) as usize];
        // Fields between `field` and `n.field` are unconstrained (left 0).
        for &(v, c) in &n.branches {
            out[n.field as usize] = v;
            if self.sp_witness_into(c, out) {
                return true;
            }
        }
        out[n.field as usize] =
            fresh_value(|v| n.branches.binary_search_by_key(&v, |b| b.0).is_ok());
        self.sp_witness_into(n.default, out)
    }

    /// The singleton set containing exactly `vals`.
    pub fn sp_singleton(&mut self, vals: &[u64]) -> Sp {
        let mut acc = Sp::FULL;
        for f in (0..vals.len()).rev() {
            acc = self.mk_sp(f as u16, vec![(vals[f], acc)], Sp::EMPTY);
        }
        acc
    }

    /// The set of packets `{ p | p[field] = value }`.
    pub fn sp_test(&mut self, field: u16, value: u64) -> Sp {
        self.mk_sp(field, vec![(value, Sp::FULL)], Sp::EMPTY)
    }

    // ------------------------------------------------------------------
    // SPP operations
    // ------------------------------------------------------------------

    /// Transformer union: `a + b`.
    pub fn spp_union(&mut self, a: Spp, b: Spp) -> Spp {
        if a == b || b == Spp::ZERO {
            return a;
        }
        if a == Spp::ZERO {
            return b;
        }
        let key = Memo::SppUnion(a.min(b).0, a.max(b).0);
        Spp(self.memoized(key, |ar| ar.spp_union_rows(a, b).0))
    }

    fn spp_union_rows(&mut self, a: Spp, b: Spp) -> Spp {
        let f = self.spp_field(a).min(self.spp_field(b));
        let (va, vb) = (self.spp_rows(a, f), self.spp_rows(b, f));
        let (mut tested, mut outs) = (Vec::new(), Vec::new());
        for (v, ra, rb) in merge(va.branches().iter(), vb.branches().iter()) {
            let (ra, rb) = (va.row_or_default(v, ra), vb.row_or_default(v, rb));
            self.row_union(ra, rb, &mut outs);
            tested.push((v, row_end(&outs)));
        }
        let mut muts = Vec::new();
        self.row_union(Row::tested(va.muts()), Row::tested(vb.muts()), &mut muts);
        let id = self.spp_union(va.id, vb.id);
        self.mk_spp(f, tested, outs, muts, id)
    }

    /// Two rows united output by output, appended to `out`.
    fn row_union(&mut self, a: Row<'_>, b: Row<'_>, out: &mut Vec<(u64, Spp)>) {
        for (w, ca, cb) in merge(a.iter(), b.iter()) {
            let c = self.spp_union(ca.unwrap_or(Spp::ZERO), cb.unwrap_or(Spp::ZERO));
            out.push((w, c));
        }
    }

    /// Sequential composition `a ; b`.
    pub fn spp_seq(&mut self, a: Spp, b: Spp) -> Spp {
        if a == Spp::ZERO || b == Spp::ZERO {
            return Spp::ZERO;
        }
        if a == Spp::ONE {
            return b;
        }
        if b == Spp::ONE {
            return a;
        }
        Spp(self.memoized(Memo::SppSeq(a.0, b.0), |ar| ar.spp_seq_rows(a, b).0))
    }

    fn spp_seq_rows(&mut self, a: Spp, b: Spp) -> Spp {
        let f = self.spp_field(a).min(self.spp_field(b));
        let (va, vb) = (self.spp_rows(a, f), self.spp_rows(b, f));

        // Behaviour on a *generic* untested input value v: a's muts lead
        // into b at known constants; a's id leads into b's untested row.
        let mut generic = Vec::new();
        for &(w, ca) in va.muts() {
            for (z, cb) in vb.row(w).iter() {
                generic.push((z, self.spp_seq(ca, cb)));
            }
        }
        for &(z, cb) in vb.muts() {
            generic.push((z, self.spp_seq(va.id, cb)));
        }
        let muts = self.join_by_value(generic, Spp::ZERO, Arena::spp_union);
        let id = self.spp_seq(va.id, vb.id);

        // Inputs whose behaviour can differ from the generic row: values
        // tested or mutated by either side, plus any value the generic row
        // itself outputs (for those, "output = input" is reachable through
        // a mut chain, which the untested row cannot express).
        let tested = sorted_keys(
            va.branches()
                .keys()
                .chain(keys(va.muts()))
                .chain(vb.branches().keys())
                .chain(keys(vb.muts()))
                .chain(keys(&muts)),
        );
        let (mut rows, mut outs, mut out) =
            (Vec::with_capacity(tested.len()), Vec::new(), Vec::new());
        for v in tested {
            out.clear();
            for (w, ca) in va.row(v).iter() {
                for (z, cb) in vb.row(w).iter() {
                    out.push((z, self.spp_seq(ca, cb)));
                }
            }
            out = self.join_by_value(out, Spp::ZERO, Arena::spp_union);
            outs.extend_from_slice(&out);
            rows.push((v, row_end(&outs)));
        }
        self.mk_spp(f, rows, outs, muts, id)
    }

    /// Kleene star `a*` with an explicit iteration budget; returns the
    /// closure and the number of squaring rounds used.
    pub fn spp_star_bounded(
        &mut self,
        a: Spp,
        budget: u32,
    ) -> Result<(Spp, u32), StarBudgetExceeded> {
        self.stats.star_runs += 1;
        let mut s = self.spp_union(Spp::ONE, a);
        let mut iters = 0u32;
        loop {
            let s2 = self.spp_seq(s, s);
            iters += 1;
            self.stats.star_iterations += 1;
            if s2 == s {
                return Ok((s, iters));
            }
            if iters >= budget {
                return Err(StarBudgetExceeded { iterations: iters });
            }
            s = s2;
        }
    }

    /// Kleene star `a*` (squaring fixpoint, [`DEFAULT_STAR_BUDGET`]).
    pub fn spp_star(&mut self, a: Spp) -> Spp {
        match self.spp_star_bounded(a, DEFAULT_STAR_BUDGET) {
            Ok((s, _)) => s,
            Err(e) => unreachable!("star fixpoint must stabilize on a finite lattice: {e}"),
        }
    }

    /// Restrict the identity to a set: the partial-identity transformer
    /// `{(p, p) | p ∈ a}` (the denotation of `filter`).
    pub fn spp_test(&mut self, a: Sp) -> Spp {
        if a == Sp::EMPTY {
            return Spp::ZERO;
        }
        if a == Sp::FULL {
            return Spp::ONE;
        }
        Spp(self.memoized(Memo::SppTest(a.0), |ar| {
            let n = Rc::clone(&ar.sp_nodes[(a.0 - 2) as usize]);
            let tested = (1..).zip(&n.branches).map(|(end, b)| (b.0, end)).collect();
            let outs = n
                .branches
                .iter()
                .map(|&(v, c)| (v, ar.spp_test(c)))
                .collect();
            let id = ar.spp_test(n.default);
            ar.mk_spp(n.field, tested, outs, Vec::new(), id).0
        }))
    }

    /// The transformer `field := value` (identity on the other fields).
    pub fn spp_assign(&mut self, field: u16, value: u64) -> Spp {
        let row = vec![(value, Spp::ONE)];
        self.mk_spp(field, vec![(value, 1)], row.clone(), row, Spp::ZERO)
    }

    // ------------------------------------------------------------------
    // Images
    // ------------------------------------------------------------------

    /// Forward image: `{ β | ∃ α ∈ s. (α, β) ∈ t }`.
    pub fn push(&mut self, s: Sp, t: Spp) -> Sp {
        if s == Sp::EMPTY || t == Spp::ZERO {
            return Sp::EMPTY;
        }
        if t == Spp::ONE {
            return s;
        }
        Sp(self.memoized(Memo::Push(s.0, t.0), |ar| ar.push_rows(s, t).0))
    }

    fn push_rows(&mut self, s: Sp, t: Spp) -> Sp {
        let f = self.sp_field(s).min(self.spp_field(t));
        let (vs, vt) = (self.sp_rows(s, f), self.spp_rows(t, f));
        let mut tested = Vec::new();
        let mut images = Vec::new();
        for (v, sv, row) in merge(vs.branches().iter().copied(), vt.branches().iter()) {
            tested.push(v);
            let sv = sv.unwrap_or(vs.default);
            if sv == Sp::EMPTY {
                continue;
            }
            for (w, c) in vt.row_or_default(v, row).iter() {
                images.push((w, self.push(sv, c)));
            }
        }
        for &(w, c) in vt.muts() {
            // Valid for any untested input v ≠ w; such inputs always exist.
            images.push((w, self.push(vs.default, c)));
        }
        let default = self.push(vs.default, vt.id);
        let images = self.join_by_value(images, Sp::EMPTY, Arena::sp_union);
        // One bucket per output value. A tested input value keeps its own
        // bucket: its id image was handled exactly above, so the generic
        // default (which includes the id image) must not apply. Every
        // other bucket also receives the generic id image (an untested
        // input equal to that output value maps onto it through id).
        let pinned = tested.iter().map(|&v| (v, ()));
        let mut buckets = Vec::with_capacity(tested.len() + images.len());
        for (w, pin, img) in merge(pinned, images) {
            let img = img.unwrap_or(Sp::EMPTY);
            let bucket = match pin {
                Some(()) => img,
                None => self.sp_union(img, default),
            };
            buckets.push((w, bucket));
        }
        self.mk_sp(f, buckets, default)
    }

    /// Backward image (preimage): `{ α | ∃ β ∈ s. (α, β) ∈ t }`.
    pub fn pre(&mut self, t: Spp, s: Sp) -> Sp {
        if s == Sp::EMPTY || t == Spp::ZERO {
            return Sp::EMPTY;
        }
        if t == Spp::ONE {
            return s;
        }
        Sp(self.memoized(Memo::Pre(t.0, s.0), |ar| ar.pre_rows(t, s).0))
    }

    fn pre_rows(&mut self, t: Spp, s: Sp) -> Sp {
        let f = self.sp_field(s).min(self.spp_field(t));
        let (vs, vt) = (self.sp_rows(s, f), self.spp_rows(t, f));
        let tested = sorted_keys(
            vt.branches()
                .keys()
                .chain(keys(vt.muts()))
                .chain(keys(vs.branches())),
        );
        let mut branches = Vec::with_capacity(tested.len());
        for v in tested {
            let mut acc = Sp::EMPTY;
            for (w, c) in vt.row(v).iter() {
                let p = self.pre(c, vs.child(w));
                acc = self.sp_union(acc, p);
            }
            branches.push((v, acc));
        }
        let mut default = self.pre(vt.id, vs.default);
        for &(w, c) in vt.muts() {
            let p = self.pre(c, vs.child(w));
            default = self.sp_union(default, p);
        }
        self.mk_sp(f, branches, default)
    }

    // ------------------------------------------------------------------
    // Evaluation (for testing and witness validation)
    // ------------------------------------------------------------------

    /// Evaluate the transformer on a concrete input, returning the set of
    /// outputs (small by construction — used by tests and witnesses).
    pub fn spp_eval(&self, t: Spp, input: &[u64]) -> BTreeSet<Vec<u64>> {
        let mut out = BTreeSet::new();
        self.spp_eval_into(t, input, 0, &[], &mut out);
        out
    }

    fn spp_eval_into(
        &self,
        t: Spp,
        input: &[u64],
        field: u16,
        prefix: &[u64],
        out: &mut BTreeSet<Vec<u64>>,
    ) {
        if t == Spp::ZERO {
            return;
        }
        if t == Spp::ONE {
            // Identity on the remaining fields field..num_fields.
            let mut v = prefix.to_vec();
            v.extend_from_slice(&input[field as usize..]);
            out.insert(v);
            return;
        }
        let n = &self.spp_nodes[(t.0 - 2) as usize];
        // Fields field..n.field are identity (skipped).
        let skipped = &input[field as usize..n.field as usize];
        for (w, c) in n.row(input[n.field as usize]).iter() {
            let mut p = prefix.to_vec();
            p.extend_from_slice(skipped);
            p.push(w);
            self.spp_eval_into(c, input, n.field + 1, &p, out);
        }
    }

    // ------------------------------------------------------------------
    // Counterexample extraction
    // ------------------------------------------------------------------

    /// An input on which `a` and `b` produce different output sets, if the
    /// two transformers differ. Canonical form guarantees `a != b` (as
    /// ids) iff such an input exists.
    pub fn distinguishing_input(&self, a: Spp, b: Spp) -> Option<Vec<u64>> {
        if a == b {
            return None;
        }
        let mut out = vec![0u64; self.num_fields as usize];
        if self.distinguish_into(a, b, &mut out) {
            Some(out)
        } else {
            None
        }
    }

    fn distinguish_into(&self, a: Spp, b: Spp, out: &mut [u64]) -> bool {
        if a == b {
            return false;
        }
        let f = self.spp_field(a).min(self.spp_field(b));
        if f == u16::MAX {
            // One leaf is ZERO and the other ONE: any input distinguishes
            // (fields field.. already hold defaults in `out`).
            return true;
        }
        let (va, vb) = (self.spp_rows(a, f), self.spp_rows(b, f));
        let mut candidates = sorted_keys(
            va.branches()
                .keys()
                .chain(keys(va.muts()))
                .chain(vb.branches().keys())
                .chain(keys(vb.muts())),
        );
        let fresh = fresh_value(|v| candidates.binary_search(&v).is_ok());
        candidates.insert(candidates.partition_point(|&v| v < fresh), fresh);
        for v in candidates {
            let (ma, mb) = (va.row(v), vb.row(v));
            // An output value present on one side only is immediately a
            // difference: drive the extra row to any producing input.
            let one_sided = ma
                .iter()
                .find(|e| mb.get(e.0).is_none())
                .or_else(|| mb.iter().find(|e| ma.get(e.0).is_none()));
            if let Some((_, c)) = one_sided {
                out[f as usize] = v;
                self.some_input_into(c, out);
                return true;
            }
            for (w, ca) in ma.iter() {
                let cb = mb.get(w).unwrap_or(Spp::ZERO);
                if ca != cb && self.distinguish_into(ca, cb, out) {
                    out[f as usize] = v;
                    return true;
                }
            }
        }
        false
    }

    /// Fill the untouched tail of `out` with an input on which `t` has at least one
    /// output. `t` must be non-ZERO (canonical non-ZERO ⇒ non-empty).
    fn some_input_into(&self, t: Spp, out: &mut [u64]) {
        if t == Spp::ZERO || t == Spp::ONE {
            return; // ZERO unreachable for cleaned children; ONE: any input.
        }
        let n = &self.spp_nodes[(t.0 - 2) as usize];
        for (v, m) in n.branches().iter() {
            if let Some(&(_, c)) = m.first() {
                out[n.field as usize] = v;
                self.some_input_into(c, out);
                return;
            }
        }
        let tested = |v: u64| n.branches().get(v).is_some();
        if let Some(&(w, c)) = n.muts.first() {
            out[n.field as usize] = fresh_value(|v| v == w || tested(v));
            self.some_input_into(c, out);
            return;
        }
        out[n.field as usize] = fresh_value(tested);
        self.some_input_into(n.id, out);
    }

    // ------------------------------------------------------------------
    // NetKAT conversions
    // ------------------------------------------------------------------

    /// The symbolic set denoted by a NetKAT predicate.
    pub fn sp_from_pred(&mut self, p: &Pred) -> Sp {
        match p {
            Pred::True => Sp::FULL,
            Pred::False => Sp::EMPTY,
            Pred::Test(f, v) => {
                let slot = self.slot_of[f.index()];
                self.sp_test(slot, u64::from(*v))
            }
            Pred::And(xs) => {
                let mut acc = Sp::FULL;
                for x in xs {
                    let s = self.sp_from_pred(x);
                    acc = self.sp_intersect(acc, s);
                }
                acc
            }
            Pred::Or(xs) => {
                // Reduce pairwise so an n-ary union builds O(log n) large
                // intermediates instead of an O(n)-deep chain of them.
                let sets = xs.iter().map(|x| self.sp_from_pred(x)).collect();
                self.reduce_balanced(sets, Sp::EMPTY, Arena::sp_union)
            }
            Pred::Not(x) => {
                let a = self.sp_from_pred(x);
                self.sp_complement(a)
            }
        }
    }

    /// Balanced pairwise reduction of `items` under `op` (empty ⇒ `unit`).
    fn reduce_balanced<T: Copy>(
        &mut self,
        mut items: Vec<T>,
        unit: T,
        op: impl Fn(&mut Arena, T, T) -> T,
    ) -> T {
        if items.is_empty() {
            return unit;
        }
        while items.len() > 1 {
            let mut next = Vec::with_capacity(items.len().div_ceil(2));
            for pair in items.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            items = next;
        }
        items[0]
    }

    /// The transformer `f := v` in this arena's variable order.
    fn spp_mod(&mut self, f: Field, v: u32) -> Spp {
        let slot = self.slot_of[f.index()];
        self.spp_assign(slot, u64::from(v))
    }

    /// The symbolic transformer denoted by a dup-free NetKAT policy.
    pub fn spp_from_policy(&mut self, p: &Policy) -> Result<Spp, SymError> {
        self.spp_from_policy_under(Sp::FULL, p)
    }

    /// The canonical transformer of `filter g ; p`, built without
    /// converting the sub-policies of `p` that `g` makes dead.
    ///
    /// Canonical form makes the result id-identical to
    /// `spp_from_policy(filter g ; p)`; only the work differs. A slice
    /// check under `sw = k` thus never builds the other switches' rules.
    /// A `dup` in a dead sub-policy is never reached, so only a live one
    /// is an error.
    pub fn spp_from_policy_under(&mut self, g: Sp, p: &Policy) -> Result<Spp, SymError> {
        let t = self.spp_pruned(g, p)?;
        let test = self.spp_test(g);
        Ok(self.spp_seq(test, t))
    }

    /// A transformer that agrees with `p` on every packet in `g`: each
    /// sub-policy `g` makes dead becomes `ZERO` without being converted.
    ///
    /// Along a sequence, `g` narrows through each filter in turn and
    /// widens to `FULL` past any other operand, which is sound because
    /// every output of `filter g ; l` lies in the guard kept for what
    /// follows `l`; the sequence is `ZERO` as soon as its prefix is. An
    /// unguarded (`FULL`) conversion narrows nothing, so it does the work
    /// of a plain conversion and no more.
    fn spp_pruned(&mut self, g: Sp, p: &Policy) -> Result<Spp, SymError> {
        if g == Sp::EMPTY {
            return Ok(Spp::ZERO);
        }
        match p {
            Policy::Filter(a) => {
                let s = self.sp_from_pred(a);
                if self.sp_intersect(g, s) == Sp::EMPTY {
                    Ok(Spp::ZERO)
                } else {
                    Ok(self.spp_test(s))
                }
            }
            Policy::Mod(f, v) => Ok(self.spp_mod(*f, *v)),
            Policy::Union(ps) => {
                // Balanced reduction: folding `p₁ + p₂ + … + pₙ` in order
                // would rebuild the (growing) accumulated node n times.
                let mut ids = Vec::with_capacity(ps.len());
                for p in ps {
                    ids.push(self.spp_pruned(g, p)?);
                }
                Ok(self.reduce_balanced(ids, Spp::ZERO, Arena::spp_union))
            }
            Policy::Seq(ps) => {
                let (mut acc, mut g) = (Spp::ONE, g);
                for p in ps {
                    let a = self.spp_pruned(g, p)?;
                    acc = self.spp_seq(acc, a);
                    if acc == Spp::ZERO {
                        return Ok(Spp::ZERO);
                    }
                    g = match p {
                        Policy::Filter(x) if g != Sp::FULL => {
                            let s = self.sp_from_pred(x);
                            self.sp_intersect(g, s)
                        }
                        _ => Sp::FULL,
                    };
                }
                Ok(acc)
            }
            Policy::Star(x) => {
                let a = self.spp_pruned(Sp::FULL, x)?;
                self.spp_star_bounded(a, DEFAULT_STAR_BUDGET)
                    .map(|(s, _)| s)
                    .map_err(SymError::StarBudget)
            }
            Policy::Dup => Err(SymError::DupUnsupported),
        }
    }

    // ------------------------------------------------------------------
    // Policy images
    // ------------------------------------------------------------------

    /// Forward image of `s` under a policy: `{ β | ∃ α ∈ s. β ∈ p(α) }`.
    ///
    /// Computed by structural recursion over `p` on packet sets, so no
    /// transformer for the whole of `p` is built and a sub-policy the
    /// packets cannot reach costs one empty intersection. `dup` only
    /// archives the packet into the history, so it is the identity on
    /// the current packet here.
    pub fn push_policy(&mut self, s: Sp, p: &Policy) -> Sp {
        if s == Sp::EMPTY {
            return Sp::EMPTY;
        }
        match p {
            Policy::Filter(a) => {
                let t = self.sp_from_pred(a);
                self.sp_intersect(s, t)
            }
            Policy::Mod(f, v) => {
                let t = self.spp_mod(*f, *v);
                self.push(s, t)
            }
            Policy::Union(ps) => {
                let images = ps.iter().map(|p| self.push_policy(s, p)).collect();
                self.reduce_balanced(images, Sp::EMPTY, Arena::sp_union)
            }
            Policy::Seq(ps) => ps.iter().fold(s, |mid, p| self.push_policy(mid, p)),
            Policy::Star(x) => self.sp_closure(s, |ar, f| ar.push_policy(f, x)),
            Policy::Dup => s,
        }
    }

    /// Backward image (preimage) of `s` under a policy:
    /// `{ α | ∃ β ∈ s. β ∈ p(α) }`, by the structural recursion of
    /// [`Arena::push_policy`] run backwards.
    pub fn pre_policy(&mut self, p: &Policy, s: Sp) -> Sp {
        if s == Sp::EMPTY {
            return Sp::EMPTY;
        }
        match p {
            Policy::Filter(a) => {
                let t = self.sp_from_pred(a);
                self.sp_intersect(s, t)
            }
            Policy::Mod(f, v) => {
                let t = self.spp_mod(*f, *v);
                self.pre(t, s)
            }
            Policy::Union(ps) => {
                let images = ps.iter().map(|p| self.pre_policy(p, s)).collect();
                self.reduce_balanced(images, Sp::EMPTY, Arena::sp_union)
            }
            Policy::Seq(ps) => ps.iter().rev().fold(s, |mid, p| self.pre_policy(p, mid)),
            Policy::Star(x) => self.sp_closure(s, |ar, f| ar.pre_policy(x, f)),
            Policy::Dup => s,
        }
    }

    /// The least set containing `s` and closed under `image`, found by
    /// applying `image` to the newly added frontier only (images
    /// distribute over union). Terminates: the accumulated set grows
    /// strictly, and every set built lies in the finite lattice of sets
    /// over the constants of `s` and the policy.
    fn sp_closure(&mut self, s: Sp, image: impl Fn(&mut Arena, Sp) -> Sp) -> Sp {
        let (mut acc, mut frontier) = (s, s);
        while frontier != Sp::EMPTY {
            let next = image(self, frontier);
            frontier = self.sp_diff(next, acc);
            acc = self.sp_union(acc, frontier);
        }
        acc
    }

    /// Convert a NetKAT [`Packet`] to arena slot values (this arena's
    /// variable order).
    pub fn values_of_packet(&self, p: &Packet) -> Vec<u64> {
        self.order
            .iter()
            .map(|&f| u64::from(p.0[f as usize]))
            .collect()
    }

    /// Convert arena slot values (as produced by witnesses over a
    /// six-field arena) back to a NetKAT [`Packet`], undoing this arena's
    /// variable order. Values must fit u32 — guaranteed for structures
    /// built from NetKAT policies, whose constants and fresh
    /// representatives are all small.
    pub fn packet_of_values(&self, vals: &[u64]) -> Packet {
        let mut pkt = Packet::zero();
        for (slot, &v) in vals.iter().enumerate().take(self.order.len()) {
            let f = self.order[slot] as usize;
            if f < Field::ALL.len() {
                pkt.0[f] = u32::try_from(v).expect("netkat field values fit u32");
            }
        }
        pkt
    }

    // ------------------------------------------------------------------
    // Invariant checking (test support)
    // ------------------------------------------------------------------

    /// Verify the structural invariants of every interned node: field
    /// ordering, branch sortedness, canonical pruning, and interning
    /// consistency (structurally equal ⇒ same id). Returns a description
    /// of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (i, n) in self.sp_nodes.iter().enumerate() {
            let id = Sp(u32::try_from(i + 2).expect("id fits"));
            if n.branches.is_empty() {
                return Err(format!("sp {id:?}: empty branch list"));
            }
            if !n.branches.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("sp {id:?}: branches not strictly sorted"));
            }
            for &(v, c) in &n.branches {
                if c == n.default {
                    return Err(format!("sp {id:?}: branch {v} equals default"));
                }
                if self.sp_field(c) <= n.field {
                    return Err(format!("sp {id:?}: branch {v} violates field order"));
                }
            }
            if self.sp_field(n.default) <= n.field {
                return Err(format!("sp {id:?}: default violates field order"));
            }
            if self.sp_intern.get(&**n) != Some(&id.0) {
                return Err(format!("sp {id:?}: interning inconsistent"));
            }
        }
        for (i, n) in self.spp_nodes.iter().enumerate() {
            let id = Spp(u32::try_from(i + 2).expect("id fits"));
            if n.tested.is_empty() && n.muts.is_empty() {
                return Err(format!("spp {id:?}: collapsible node"));
            }
            if !n.tested.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("spp {id:?}: branches not strictly sorted"));
            }
            let last = n.tested.last().map_or(0, |t| t.1 as usize);
            if !n.tested.is_sorted_by_key(|t| t.1) || last != n.outs.len() {
                return Err(format!("spp {id:?}: row ends do not partition the outputs"));
            }
            if !n.muts.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("spp {id:?}: muts not strictly sorted"));
            }
            for &(w, c) in &n.muts {
                if c == Spp::ZERO {
                    return Err(format!("spp {id:?}: ZERO mut at {w}"));
                }
                if self.spp_field(c) <= n.field {
                    return Err(format!("spp {id:?}: mut {w} violates field order"));
                }
            }
            if n.id != Spp::ZERO && self.spp_field(n.id) <= n.field {
                return Err(format!("spp {id:?}: id violates field order"));
            }
            for (v, m) in n.branches().iter() {
                if !m.windows(2).all(|w| w[0].0 < w[1].0) {
                    return Err(format!("spp {id:?}: branch {v} map not sorted"));
                }
                for &(w, c) in m {
                    if c == Spp::ZERO {
                        return Err(format!("spp {id:?}: ZERO child at ({v},{w})"));
                    }
                    if self.spp_field(c) <= n.field {
                        return Err(format!("spp {id:?}: ({v},{w}) violates field order"));
                    }
                }
                if m.iter()
                    .copied()
                    .eq(Row::default_at(&n.muts, n.id, v).iter())
                {
                    return Err(format!("spp {id:?}: branch {v} equals effective default"));
                }
            }
            if self.spp_intern.get(&**n) != Some(&id.0) {
                return Err(format!("spp {id:?}: interning inconsistent"));
            }
        }
        Ok(())
    }
}

/// Where a row appended last to `outs` ends.
fn row_end(outs: &[(u64, Spp)]) -> u32 {
    u32::try_from(outs.len()).expect("an SPP node's rows fit u32 offsets")
}

/// The number of NetKAT packet fields ([`Field::ALL`]).
const NETKAT_FIELDS: usize = Field::ALL.len();

/// The variable order [`Arena::for_policies`] picks for policies that
/// assign the distinct, sorted `(field, value)` pairs in `assigned`:
/// fields by ascending number of distinct assigned values, ties in
/// declaration order.
fn fan_out_order(assigned: &[(u16, u32)]) -> [u16; NETKAT_FIELDS] {
    let mut fan_out = [0usize; NETKAT_FIELDS];
    for &(f, _) in assigned {
        fan_out[f as usize] += 1;
    }
    let mut order: [u16; NETKAT_FIELDS] = std::array::from_fn(|f| f as u16);
    order.sort_by_key(|&f| (fan_out[f as usize], f));
    order
}

/// The smallest value not `taken`.
fn fresh_value(taken: impl Fn(u64) -> bool) -> u64 {
    (0u64..).find(|&v| !taken(v)).expect("u64 space")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Field;

    fn f(p: Pred) -> Policy {
        Policy::filter(p)
    }

    #[test]
    fn leaves_are_distinct() {
        assert_ne!(Sp::EMPTY, Sp::FULL);
        assert_ne!(Spp::ZERO, Spp::ONE);
    }

    #[test]
    fn sp_boolean_algebra() {
        let mut ar = Arena::for_netkat();
        let a = ar.sp_test(0, 1);
        let b = ar.sp_test(1, 2);
        let ab = ar.sp_intersect(a, b);
        let ba = ar.sp_intersect(b, a);
        assert_eq!(ab, ba);
        let u = ar.sp_union(a, b);
        let u2 = ar.sp_union(b, a);
        assert_eq!(u, u2);
        let na = ar.sp_complement(a);
        let nna = ar.sp_complement(na);
        assert_eq!(a, nna);
        let both = ar.sp_union(a, na);
        assert_eq!(both, Sp::FULL);
        let none = ar.sp_intersect(a, na);
        assert_eq!(none, Sp::EMPTY);
    }

    #[test]
    fn sp_witness_and_contains() {
        let mut ar = Arena::for_netkat();
        let a = ar.sp_test(0, 7);
        let na = ar.sp_complement(a);
        let w = ar.sp_witness(na).unwrap();
        assert_ne!(w[0], 7);
        assert!(ar.sp_contains(na, &w));
        assert!(!ar.sp_contains(a, &w));
        assert_eq!(ar.sp_witness(Sp::EMPTY), None);
    }

    #[test]
    fn assign_then_test_is_assign() {
        // f := 5 ; filter f = 5 ≡ f := 5
        let mut ar = Arena::for_netkat();
        let asg = ar.spp_assign(3, 5);
        let tst = ar.sp_test(3, 5);
        let tst = ar.spp_test(tst);
        let lhs = ar.spp_seq(asg, tst);
        assert_eq!(lhs, asg);
    }

    #[test]
    fn filter_false_is_zero() {
        let mut ar = Arena::for_netkat();
        let p = ar.spp_from_policy(&Policy::drop()).unwrap();
        assert_eq!(p, Spp::ZERO);
        let q = ar.spp_from_policy(&Policy::id()).unwrap();
        assert_eq!(q, Spp::ONE);
    }

    #[test]
    fn union_commutes_and_idempotent() {
        let mut ar = Arena::for_netkat();
        let p = ar.spp_from_policy(&Policy::assign(Field::Port, 1)).unwrap();
        let q = ar
            .spp_from_policy(&f(Pred::test(Field::Switch, 2)))
            .unwrap();
        let pq = ar.spp_union(p, q);
        let qp = ar.spp_union(q, p);
        assert_eq!(pq, qp);
        assert_eq!(ar.spp_union(p, p), p);
    }

    #[test]
    fn star_unrolls() {
        let mut ar = Arena::for_netkat();
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let s = ar.spp_from_policy(&step).unwrap();
        let star = ar.spp_star(s);
        // p* = 1 + p ; p*
        let tail = ar.spp_seq(s, star);
        let unrolled = ar.spp_union(Spp::ONE, tail);
        assert_eq!(star, unrolled);
    }

    #[test]
    fn star_bounded_reports_iterations() {
        let mut ar = Arena::for_netkat();
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let s = ar.spp_from_policy(&step).unwrap();
        let (_, iters) = ar.spp_star_bounded(s, 64).unwrap();
        assert!((1..=8).contains(&iters), "iters = {iters}");
        assert!(ar.stats().star_iterations >= u64::from(iters));
        // A two-hop chain needs more than one squaring round: budget 1
        // must be reported as exhausted.
        let chain = f(Pred::test(Field::Switch, 1))
            .seq(Policy::assign(Field::Switch, 2))
            .union(f(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Switch, 3)));
        let c = ar.spp_from_policy(&chain).unwrap();
        assert_eq!(
            ar.spp_star_bounded(c, 1),
            Err(StarBudgetExceeded { iterations: 1 })
        );
    }

    #[test]
    fn eval_matches_semantics() {
        use crate::semantics::eval_packet;
        let mut ar = Arena::for_netkat();
        let pol = f(Pred::test(Field::Switch, 1).not())
            .seq(Policy::assign(Field::Port, 9))
            .union(Policy::assign(Field::Tag, 3));
        let t = ar.spp_from_policy(&pol).unwrap();
        for sw in 0..3u32 {
            let pkt = Packet::of(&[(Field::Switch, sw), (Field::Port, 4)]);
            let sym: BTreeSet<Packet> = ar
                .spp_eval(t, &ar.values_of_packet(&pkt))
                .iter()
                .map(|v| ar.packet_of_values(v))
                .collect();
            assert_eq!(sym, eval_packet(&pol, pkt), "sw={sw}");
        }
    }

    #[test]
    fn distinguishing_input_finds_difference() {
        let mut ar = Arena::for_netkat();
        let p = ar
            .spp_from_policy(&f(Pred::test(Field::Src, 1).not()))
            .unwrap();
        let q = ar.spp_from_policy(&f(Pred::test(Field::Src, 2))).unwrap();
        assert_ne!(p, q);
        let w = ar.distinguishing_input(p, q).unwrap();
        assert_ne!(ar.spp_eval(p, &w), ar.spp_eval(q, &w));
        assert_eq!(ar.distinguishing_input(p, p), None);
    }

    #[test]
    fn push_and_pre_are_adjoint_on_examples() {
        let mut ar = Arena::for_netkat();
        // step: at sw=1 go to sw=2.
        let step = f(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Switch, 2));
        let t = ar.spp_from_policy(&step).unwrap();
        let at1 = ar.sp_test(0, 1);
        let at2 = ar.sp_test(0, 2);
        let img = ar.push(at1, t);
        // image of sw=1 is exactly sw=2 (with all other fields preserved).
        let inter = ar.sp_intersect(img, at2);
        assert_eq!(inter, img);
        assert_ne!(img, Sp::EMPTY);
        let back = ar.pre(t, at2);
        let onlys1 = ar.sp_intersect(back, at1);
        assert_eq!(onlys1, back);
        assert_ne!(back, Sp::EMPTY);
        // Nothing maps into sw=3.
        let at3 = ar.sp_test(0, 3);
        assert_eq!(ar.pre(t, at3), Sp::EMPTY);
    }

    #[test]
    fn guarded_conversion_skips_dead_arms() {
        let mut ar = Arena::for_netkat();
        let at2 = ar.sp_test(0, 2);
        // The dup sits in an arm `sw = 2` makes dead: it is never
        // converted, so the conversion succeeds.
        let live = f(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Port, 7));
        let p = f(Pred::test(Field::Switch, 1))
            .seq(Policy::Dup)
            .union(live.clone());
        let under = ar.spp_from_policy_under(at2, &p).unwrap();
        assert_eq!(under, ar.spp_from_policy(&live).unwrap());
        assert_eq!(ar.spp_from_policy(&p), Err(SymError::DupUnsupported));
        // A modification widens the guard again: after `sw := 1` the
        // test `sw = 1` is live although `sw = 2` held before it.
        let q = Policy::assign(Field::Switch, 1).seq(f(Pred::test(Field::Switch, 1)));
        let under = ar.spp_from_policy_under(at2, &q).unwrap();
        let full = f(Pred::test(Field::Switch, 2)).seq(q);
        assert_eq!(under, ar.spp_from_policy(&full).unwrap());
        assert_ne!(under, Spp::ZERO);
    }

    #[test]
    fn policy_images_read_dup_as_identity_and_close_stars() {
        let mut ar = Arena::for_netkat();
        let hop = f(Pred::test(Field::Switch, 1))
            .seq(Policy::Dup)
            .seq(Policy::assign(Field::Switch, 2))
            .union(f(Pred::test(Field::Switch, 2)).seq(Policy::assign(Field::Switch, 3)));
        let at1 = ar.sp_singleton(&[1, 0, 0, 0, 0, 0]);
        let at3 = ar.sp_singleton(&[3, 0, 0, 0, 0, 0]);
        let closure = ar.push_policy(at1, &hop.clone().star());
        let visited = [1, 2, 3].map(|sw| ar.sp_singleton(&[sw, 0, 0, 0, 0, 0]));
        let expect = visited
            .into_iter()
            .fold(Sp::EMPTY, |acc, s| ar.sp_union(acc, s));
        assert_eq!(closure, expect);
        assert_eq!(ar.pre_policy(&hop.star(), at3), expect);
    }

    #[test]
    fn interning_gives_id_equality() {
        let mut ar = Arena::for_netkat();
        let a1 = ar.sp_test(2, 9);
        let a2 = ar.sp_test(2, 9);
        assert_eq!(a1, a2);
        let p1 = ar.spp_assign(1, 4);
        let p2 = ar.spp_assign(1, 4);
        assert_eq!(p1, p2);
        ar.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_after_mixed_workload() {
        let mut ar = Arena::for_netkat();
        let pol = f(Pred::test(Field::Switch, 1))
            .seq(Policy::assign(Field::Port, 2))
            .union(f(Pred::test(Field::Port, 2).not()).seq(Policy::assign(Field::Tag, 1)))
            .star();
        let t = ar.spp_from_policy(&pol).unwrap();
        let init = ar.sp_singleton(&[1, 0, 0, 0, 0, 0]);
        let img = ar.push(init, t);
        let _ = ar.pre(t, img);
        ar.check_invariants().unwrap();
        assert!(ar.stats().cache_misses > 0);
    }
}
