//! Abstract syntax for NetKAT (Anderson et al., POPL 2014).
//!
//! ```text
//! pred   a,b ::= true | false | f = n | a & b | a | b | !a
//! policy p,q ::= filter a | f := n | p + q | p ; q | p* | dup
//! ```
//!
//! Packets are records of a small set of numeric fields. The paper's
//! hybrid language (§5.1) borrows NetKAT's Kleene star for path
//! abstraction (`∗⇒`) and its Boolean tests for the `▶` prefix, so this
//! crate provides the full language plus the reachability analysis the
//! hybrid compiler needs.
//!
//! The four associative connectives `+`, `;`, `&` and `|` hold a chain
//! as one node with its operands in a `Vec`: the helpers that build
//! them ([`Policy::union`], [`Policy::seq`], [`Pred::and`], [`Pred::or`]
//! and [`Policy::any`]) append to an operand of the same kind instead of
//! nesting it, and [`Policy::star`] leaves a star as it is, since
//! `(p*)* ≡ p*`. A tree is thus as deep as its text is nested, not as
//! long as its chains, and every walk over it is plain structural
//! recursion: the parser bounds nesting at
//! [`crate::parser::MAX_NESTING`] levels.

use std::fmt;

/// Packet fields. The set follows the NetKAT paper's canonical header
/// fields, with `Tag` available for middlebox marks (FlowTags-style,
/// which the paper's UC3 cites).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Field {
    /// Switch the packet is at.
    Switch,
    /// Port on that switch.
    Port,
    /// Source address (abstract numeric).
    Src,
    /// Destination address (abstract numeric).
    Dst,
    /// Protocol / type code.
    Proto,
    /// Middlebox processing tag.
    Tag,
}

impl Field {
    /// All fields, in storage order.
    pub const ALL: [Field; 6] = [
        Field::Switch,
        Field::Port,
        Field::Src,
        Field::Dst,
        Field::Proto,
        Field::Tag,
    ];

    /// Storage index.
    pub fn index(self) -> usize {
        match self {
            Field::Switch => 0,
            Field::Port => 1,
            Field::Src => 2,
            Field::Dst => 3,
            Field::Proto => 4,
            Field::Tag => 5,
        }
    }

    /// Short name used by `Display` and the parser.
    pub fn name(self) -> &'static str {
        match self {
            Field::Switch => "sw",
            Field::Port => "pt",
            Field::Src => "src",
            Field::Dst => "dst",
            Field::Proto => "proto",
            Field::Tag => "tag",
        }
    }

    /// Parse a field name.
    pub fn from_name(s: &str) -> Option<Field> {
        Field::ALL.into_iter().find(|f| f.name() == s)
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A concrete packet: one value per field.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Packet(pub [u32; 6]);

impl Packet {
    /// The all-zero packet.
    pub fn zero() -> Packet {
        Packet([0; 6])
    }

    /// Read a field.
    pub fn get(&self, f: Field) -> u32 {
        self.0[f.index()]
    }

    /// Functional field update.
    pub fn with(mut self, f: Field, v: u32) -> Packet {
        self.0[f.index()] = v;
        self
    }

    /// Build from (field, value) pairs over a zero packet.
    pub fn of(pairs: &[(Field, u32)]) -> Packet {
        let mut p = Packet::zero();
        for &(f, v) in pairs {
            p = p.with(f, v);
        }
        p
    }
}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, field) in Field::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}={}", field, self.get(*field))?;
        }
        write!(f, "⟩")
    }
}

/// NetKAT predicates.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Pred {
    /// `true` — passes every packet.
    True,
    /// `false` — drops every packet.
    False,
    /// `f = n`.
    Test(Field, u32),
    /// Conjunction of its operands, two or more, none a conjunction.
    And(Vec<Pred>),
    /// Disjunction of its operands, two or more, none a disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `f = n` helper.
    pub fn test(f: Field, n: u32) -> Pred {
        Pred::Test(f, n)
    }

    /// Conjunction helper: a conjunction on either side contributes its
    /// operands.
    pub fn and(self, other: Pred) -> Pred {
        let open = |p| match p {
            Pred::And(ps) => Ok(ps),
            p => Err(p),
        };
        Pred::And(chain(self, other, open))
    }

    /// Disjunction helper: a disjunction on either side contributes its
    /// operands.
    pub fn or(self, other: Pred) -> Pred {
        let open = |p| match p {
            Pred::Or(ps) => Ok(ps),
            p => Err(p),
        };
        Pred::Or(chain(self, other, open))
    }

    /// Negation helper. Deliberately named after the NetKAT surface
    /// syntax rather than `std::ops::Not`, like `and`/`or` above.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Pred {
        Pred::Not(Box::new(self))
    }

    /// Evaluate against a packet.
    pub fn eval(&self, pkt: &Packet) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Test(f, n) => pkt.get(*f) == *n,
            Pred::And(ps) => ps.iter().all(|a| a.eval(pkt)),
            Pred::Or(ps) => ps.iter().any(|a| a.eval(pkt)),
            Pred::Not(a) => !a.eval(pkt),
        }
    }

    /// Constants mentioned per field (for finite-model equivalence).
    pub fn constants(&self, out: &mut Vec<(Field, u32)>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Test(f, n) => out.push((*f, *n)),
            Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|a| a.constants(out)),
            Pred::Not(a) => a.constants(out),
        }
    }
}

/// NetKAT policies.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Policy {
    /// `filter a` — keep packets satisfying `a`.
    Filter(Pred),
    /// `f := n` — overwrite a field.
    Mod(Field, u32),
    /// `p + q + …` — union (copy the packet through every operand), of
    /// two or more operands, none a union.
    Union(Vec<Policy>),
    /// `p ; q ; …` — sequential composition, left to right, of two or
    /// more operands, none a sequence.
    Seq(Vec<Policy>),
    /// `p*` — iterate zero or more times.
    Star(Box<Policy>),
    /// `dup` — record the current packet into the history.
    Dup,
}

impl Policy {
    /// `filter true` — the identity policy (`id` in the paper).
    pub fn id() -> Policy {
        Policy::Filter(Pred::True)
    }

    /// `filter false` — the drop policy.
    pub fn drop() -> Policy {
        Policy::Filter(Pred::False)
    }

    /// Filter helper.
    pub fn filter(p: Pred) -> Policy {
        Policy::Filter(p)
    }

    /// Modification helper.
    pub fn assign(f: Field, n: u32) -> Policy {
        Policy::Mod(f, n)
    }

    /// Union helper: a union on either side contributes its operands.
    pub fn union(self, other: Policy) -> Policy {
        let open = |p| match p {
            Policy::Union(ps) => Ok(ps),
            p => Err(p),
        };
        Policy::Union(chain(self, other, open))
    }

    /// Sequence helper: a sequence on either side contributes its
    /// operands.
    pub fn seq(self, other: Policy) -> Policy {
        let open = |p| match p {
            Policy::Seq(ps) => Ok(ps),
            p => Err(p),
        };
        Policy::Seq(chain(self, other, open))
    }

    /// Kleene-star helper. The star of a star is that star: `(p*)* ≡ p*`.
    pub fn star(self) -> Policy {
        match self {
            Policy::Star(_) => self,
            p => Policy::Star(Box::new(p)),
        }
    }

    /// Union of many policies, as one node (drop if empty, the policy
    /// itself if there is one).
    pub fn any(ps: impl IntoIterator<Item = Policy>) -> Policy {
        let mut iter = ps.into_iter();
        match iter.next() {
            None => Policy::drop(),
            Some(first) => iter.fold(first, Policy::union),
        }
    }

    /// Does the policy contain `dup`?
    pub fn has_dup(&self) -> bool {
        match self {
            Policy::Filter(_) | Policy::Mod(_, _) => false,
            Policy::Dup => true,
            Policy::Union(ps) | Policy::Seq(ps) => ps.iter().any(Policy::has_dup),
            Policy::Star(p) => p.has_dup(),
        }
    }

    /// AST size, counting a union or sequence of `k` operands as its
    /// `k - 1` connectives, as the binary tree of its text would be.
    pub fn size(&self) -> usize {
        match self {
            Policy::Filter(_) | Policy::Mod(_, _) | Policy::Dup => 1,
            Policy::Union(ps) | Policy::Seq(ps) => {
                ps.len().saturating_sub(1) + ps.iter().map(Policy::size).sum::<usize>()
            }
            Policy::Star(p) => 1 + p.size(),
        }
    }

    /// Constants mentioned per field (tests *and* modifications).
    pub fn constants(&self, out: &mut Vec<(Field, u32)>) {
        match self {
            Policy::Filter(a) => a.constants(out),
            Policy::Mod(f, n) => out.push((*f, *n)),
            Policy::Union(ps) | Policy::Seq(ps) => ps.iter().for_each(|p| p.constants(out)),
            Policy::Star(p) => p.constants(out),
            Policy::Dup => {}
        }
    }
}

/// The operands of `a ∘ b` for an associative connective `∘`: `open`
/// returns the operands of a node of that kind, and gives back any
/// other node, which is one operand.
fn chain<T>(a: T, b: T, open: impl Fn(T) -> Result<Vec<T>, T>) -> Vec<T> {
    let mut ops = open(a).unwrap_or_else(|a| vec![a]);
    match open(b) {
        Ok(more) => ops.extend(more),
        Err(b) => ops.push(b),
    }
    ops
}

/// Write `ops` between parentheses, separated by ` {sep} `.
fn write_chain<T: fmt::Display>(f: &mut fmt::Formatter<'_>, ops: &[T], sep: &str) -> fmt::Result {
    f.write_str("(")?;
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            write!(f, " {sep} ")?;
        }
        write!(f, "{op}")?;
    }
    f.write_str(")")
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Test(field, n) => write!(f, "{field} = {n}"),
            Pred::And(ps) => write_chain(f, ps, "&"),
            Pred::Or(ps) => write_chain(f, ps, "|"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Filter(a) => write!(f, "filter {a}"),
            Policy::Mod(field, n) => write!(f, "{field} := {n}"),
            Policy::Union(ps) => write_chain(f, ps, "+"),
            Policy::Seq(ps) => write_chain(f, ps, ";"),
            Policy::Star(p) => write!(f, "({p})*"),
            Policy::Dup => write!(f, "dup"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_get_with() {
        let p = Packet::zero().with(Field::Switch, 3).with(Field::Port, 2);
        assert_eq!(p.get(Field::Switch), 3);
        assert_eq!(p.get(Field::Port), 2);
        assert_eq!(p.get(Field::Src), 0);
    }

    #[test]
    fn pred_eval() {
        let p = Packet::of(&[(Field::Switch, 1), (Field::Dst, 9)]);
        let a = Pred::test(Field::Switch, 1).and(Pred::test(Field::Dst, 9));
        assert!(a.eval(&p));
        assert!(!a.clone().not().eval(&p));
        assert!(Pred::test(Field::Switch, 2).or(a).eval(&p));
        assert!(Pred::True.eval(&p));
        assert!(!Pred::False.eval(&p));
    }

    #[test]
    fn has_dup_and_size() {
        let p = Policy::id()
            .seq(Policy::Dup)
            .union(Policy::assign(Field::Tag, 1));
        assert!(p.has_dup());
        assert_eq!(p.size(), 5);
        assert!(!Policy::id().star().has_dup());
    }

    #[test]
    fn any_of_empty_is_drop() {
        assert_eq!(Policy::any([]), Policy::drop());
    }

    #[test]
    fn field_names_round_trip() {
        for f in Field::ALL {
            assert_eq!(Field::from_name(f.name()), Some(f));
        }
        assert_eq!(Field::from_name("bogus"), None);
    }

    /// A 40,000-term `+` chain, `;` chain and `|` predicate are one node
    /// each: cloning, comparing, printing, sizing, evaluating and
    /// dropping them fits a 2 MiB stack, also in a debug build.
    #[test]
    fn deep_chains_drop_on_a_small_stack() {
        use crate::semantics::eval_packet;
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rule = |v| Policy::assign(Field::Port, v);
                let test = |v| Pred::test(Field::Dst, v);
                let or = (1..40_000).map(test).fold(test(0), Pred::or);
                let chains = [
                    Policy::any((0..40_000).map(rule)),
                    (1..40_000).map(rule).fold(rule(0), Policy::seq),
                    Policy::filter(or.clone()),
                ];
                let pkt = Packet::of(&[(Field::Dst, 39_999)]);
                // (size, outputs on `pkt`): a filter counts as one node.
                let expect = [(79_999, 40_000), (79_999, 1), (1, 1)];
                for (chain, (size, n)) in chains.iter().zip(expect) {
                    assert_eq!(chain.clone(), *chain);
                    assert_eq!(chain.size(), size);
                    assert!(!chain.has_dup());
                    assert!(chain.to_string().len() > 40_000);
                    assert_eq!(eval_packet(chain, pkt).len(), n);
                }
                assert!(or.eval(&pkt));
                assert!(!or.eval(&Packet::of(&[(Field::Dst, 40_000)])));
                drop(chains);
            })
            .expect("spawn")
            .join()
            .expect("chains fit the stack");
    }

    #[test]
    fn chains_are_one_node_however_they_are_built() {
        let [a, b, c] = [1, 2, 3].map(|v| Policy::assign(Field::Port, v));
        let left = a.clone().union(b.clone()).union(c.clone());
        let right = a.clone().union(b.clone().union(c.clone()));
        assert_eq!(left, right);
        assert_eq!(left, Policy::any([a.clone(), b.clone(), c.clone()]));
        assert_eq!(left, Policy::Union(vec![a.clone(), b.clone(), c.clone()]));
        assert_eq!(left.size(), 5);
        let seq = a.clone().seq(b.clone().seq(c.clone()));
        assert_eq!(seq, Policy::Seq(vec![a.clone(), b, c]));
        assert_eq!(Policy::any([a.clone()]), a);
        let [x, y, z] = [1, 2, 3].map(|v| Pred::test(Field::Dst, v));
        let and = x.clone().and(y.clone().and(z.clone()));
        assert_eq!(and, Pred::And(vec![x.clone(), y.clone(), z.clone()]));
        assert_eq!(
            x.clone().or(y.clone()).or(z.clone()),
            Pred::Or(vec![x, y, z])
        );
        // And so is a run of stars: `(p*)* ≡ p*`.
        let star = Policy::Dup.star();
        assert_eq!(star.clone().star(), star);
        assert_eq!(star.size(), 2);
    }

    #[test]
    fn display_forms() {
        let p = Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Port, 2));
        assert_eq!(p.to_string(), "(filter sw = 1 ; pt := 2)");
        let any = Policy::any([1, 2, 3].map(|v| Policy::assign(Field::Port, v)));
        assert_eq!(any.to_string(), "(pt := 1 + pt := 2 + pt := 3)");
        let a = Pred::test(Field::Src, 1).and(Pred::test(Field::Dst, 2).or(Pred::False));
        assert_eq!(a.to_string(), "(src = 1 & (dst = 2 | false))");
    }
}
