//! # pda-netkat
//!
//! An implementation of **NetKAT** (Anderson et al., POPL 2014), the SDN
//! programming language whose path and reachability reasoning the paper
//! borrows for its network-aware Copland extension (§5.1): the hybrid's
//! `∗⇒` operator is NetKAT's Kleene star, and `▶` adapts NetKAT's
//! Boolean test prefix.
//!
//! Provided here:
//!
//! * [`ast`] — predicates, policies, packets ([`ast::Policy`]).
//! * [`parser`] — concrete syntax.
//! * [`semantics`] — exact denotational evaluation: the dup-free
//!   packet-function semantics and the full packet-history semantics.
//! * [`equiv`] — decision procedure for dup-free policy equivalence via
//!   a finite-model argument (KAT axioms are checked in its tests).
//! * [`reach`] — reachability and shortest-witness path extraction over
//!   `(p ; t)*` network encodings, used by `pda-hybrid` to resolve
//!   abstract places to concrete forwarding paths.
//!
//! ```
//! use pda_netkat::ast::{Field, Packet, Policy, Pred};
//! use pda_netkat::reach::{can_reach, link};
//! use std::collections::BTreeSet;
//!
//! // Switches 1→2→3 in a line, everything forwarded out port 1.
//! let step = Policy::assign(Field::Port, 1)
//!     .seq(link(1, 1, 2, 0).union(link(2, 1, 3, 0)));
//! let init = BTreeSet::from([Packet::of(&[(Field::Switch, 1)])]);
//! assert!(can_reach(&step, &init, &Pred::test(Field::Switch, 3)));
//! ```

pub mod ast;
pub mod corpus;
pub mod equiv;
pub mod parser;
pub mod reach;
pub mod semantics;
pub mod specialize;
pub mod sym;

pub use ast::{Field, Packet, Policy, Pred};
pub use equiv::{
    counterexample, counterexample_enumerative, counterexample_under, equivalent,
    equivalent_enumerative,
};
pub use parser::{parse_policy, parse_pred, NkParseError};
pub use reach::{
    can_reach, can_reach_enumerative, link, reachable, switches_along, witness_path,
    witness_path_enumerative,
};
pub use semantics::{eval_history, eval_packet, eval_set, History};
pub use specialize::{
    slice_equivalent, slice_for_switch, slice_is_dead, specialize, verified_slice_for_switch,
};
pub use sym::{Arena, Sp, Spp, SymError, SymStats};
