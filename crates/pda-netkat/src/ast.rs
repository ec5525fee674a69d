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
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `f = n` helper.
    pub fn test(f: Field, n: u32) -> Pred {
        Pred::Test(f, n)
    }

    /// Conjunction helper.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// Disjunction helper.
    pub fn or(self, other: Pred) -> Pred {
        Pred::Or(Box::new(self), Box::new(other))
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
            Pred::And(a, b) => a.eval(pkt) && b.eval(pkt),
            Pred::Or(a, b) => a.eval(pkt) || b.eval(pkt),
            Pred::Not(a) => !a.eval(pkt),
        }
    }

    /// Constants mentioned per field (for finite-model equivalence).
    pub fn constants(&self, out: &mut Vec<(Field, u32)>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Test(f, n) => out.push((*f, *n)),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.constants(out);
                b.constants(out);
            }
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
    /// `p + q` — union (copy the packet through both).
    Union(Box<Policy>, Box<Policy>),
    /// `p ; q` — sequential composition.
    Seq(Box<Policy>, Box<Policy>),
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

    /// Union helper.
    pub fn union(self, other: Policy) -> Policy {
        Policy::Union(Box::new(self), Box::new(other))
    }

    /// Sequence helper.
    pub fn seq(self, other: Policy) -> Policy {
        Policy::Seq(Box::new(self), Box::new(other))
    }

    /// Kleene-star helper.
    pub fn star(self) -> Policy {
        Policy::Star(Box::new(self))
    }

    /// Union of many policies (drop if empty).
    pub fn any(ps: impl IntoIterator<Item = Policy>) -> Policy {
        let mut iter = ps.into_iter();
        match iter.next() {
            None => Policy::drop(),
            Some(first) => iter.fold(first, |acc, p| acc.union(p)),
        }
    }

    /// Does the policy contain `dup`?
    pub fn has_dup(&self) -> bool {
        match self {
            Policy::Filter(_) | Policy::Mod(_, _) => false,
            Policy::Dup => true,
            Policy::Union(p, q) | Policy::Seq(p, q) => p.has_dup() || q.has_dup(),
            Policy::Star(p) => p.has_dup(),
        }
    }

    /// AST size.
    pub fn size(&self) -> usize {
        match self {
            Policy::Filter(_) | Policy::Mod(_, _) | Policy::Dup => 1,
            Policy::Union(p, q) | Policy::Seq(p, q) => 1 + p.size() + q.size(),
            Policy::Star(p) => 1 + p.size(),
        }
    }

    /// Constants mentioned per field (tests *and* modifications).
    pub fn constants(&self, out: &mut Vec<(Field, u32)>) {
        match self {
            Policy::Filter(a) => a.constants(out),
            Policy::Mod(f, n) => out.push((*f, *n)),
            Policy::Union(p, q) | Policy::Seq(p, q) => {
                p.constants(out);
                q.constants(out);
            }
            Policy::Star(p) => p.constants(out),
            Policy::Dup => {}
        }
    }
}

/// A syntax tree whose drop keeps its stack on the heap: the derived glue
/// recurses once per level, which a long chain overflows. Every child
/// more than two levels deep moves onto a heap stack, a leaf taking its
/// place, and is taken apart from there; the glue drops the rest, at
/// most three levels deep, so a tree no deeper allocates nothing.
trait Tree: Sized {
    /// The leaf left in place of a child taken out.
    const LEAF: Self;

    /// The boxed children of a node: none for a leaf.
    fn children(&mut self) -> (Option<&mut Box<Self>>, Option<&mut Box<Self>>);
}

/// Is `node` more than two levels deep: has it a child with children?
fn deep<T: Tree>(node: &mut T) -> bool {
    let (l, r) = node.children();
    let branch = |c: &mut Box<T>| c.children().0.is_some();
    l.is_some_and(branch) || r.is_some_and(branch)
}

/// Move each child of `node` more than two levels deep onto `stack`.
fn take_deep<T: Tree>(node: &mut T, stack: &mut Vec<T>) {
    let (l, r) = node.children();
    for c in [l, r].into_iter().flatten() {
        if deep(&mut **c) {
            stack.push(std::mem::replace(&mut **c, T::LEAF));
        }
    }
}

fn drop_tree<T: Tree>(root: &mut T) {
    let (l, r) = root.children();
    let deep_child = |c: &mut Box<T>| deep(&mut **c);
    if l.is_some_and(deep_child) || r.is_some_and(deep_child) {
        let mut stack = Vec::new();
        take_deep(root, &mut stack);
        while let Some(mut node) = stack.pop() {
            take_deep(&mut node, &mut stack);
        }
    }
}

impl Tree for Pred {
    const LEAF: Pred = Pred::True;

    fn children(&mut self) -> (Option<&mut Box<Pred>>, Option<&mut Box<Pred>>) {
        match self {
            Pred::And(l, r) | Pred::Or(l, r) => (Some(l), Some(r)),
            Pred::Not(x) => (Some(x), None),
            Pred::True | Pred::False | Pred::Test(..) => (None, None),
        }
    }
}

impl Drop for Pred {
    fn drop(&mut self) {
        drop_tree(self);
    }
}

impl Tree for Policy {
    const LEAF: Policy = Policy::Dup;

    fn children(&mut self) -> (Option<&mut Box<Policy>>, Option<&mut Box<Policy>>) {
        match self {
            Policy::Union(l, r) | Policy::Seq(l, r) => (Some(l), Some(r)),
            Policy::Star(x) => (Some(x), None),
            Policy::Filter(_) | Policy::Mod(..) | Policy::Dup => (None, None),
        }
    }
}

impl Drop for Policy {
    fn drop(&mut self) {
        drop_tree(self);
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Test(field, n) => write!(f, "{field} = {n}"),
            Pred::And(a, b) => write!(f, "({a} & {b})"),
            Pred::Or(a, b) => write!(f, "({a} | {b})"),
            Pred::Not(a) => write!(f, "!({a})"),
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Policy::Filter(a) => write!(f, "filter {a}"),
            Policy::Mod(field, n) => write!(f, "{field} := {n}"),
            Policy::Union(p, q) => write!(f, "({p} + {q})"),
            Policy::Seq(p, q) => write!(f, "({p} ; {q})"),
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

    /// Dropping a 40,000-term `+` chain, `;` chain or `|` predicate
    /// fits a 2 MiB stack, also in a debug build.
    #[test]
    fn deep_chains_drop_on_a_small_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let rule = |v| Policy::assign(Field::Port, v);
                drop(Policy::any((0..40_000).map(rule)));
                drop((1..40_000).map(rule).fold(rule(0), Policy::seq));
                let test = |v| Pred::test(Field::Dst, v);
                drop((1..40_000).map(test).fold(test(0), Pred::or));
            })
            .expect("spawn")
            .join()
            .expect("drops fit the stack");
    }

    #[test]
    fn display_forms() {
        let p = Policy::filter(Pred::test(Field::Switch, 1)).seq(Policy::assign(Field::Port, 2));
        assert_eq!(p.to_string(), "(filter sw = 1 ; pt := 2)");
    }
}
