//! # pda-ra
//!
//! The remote-attestation core (§4, Fig. 1): concrete, crypto-backed
//! execution of Copland phrases and appraisal of the resulting evidence.
//!
//! * [`evidence`] — concrete evidence terms ([`evidence::Ev`]) with a
//!   canonical injective encoding for hashing and signing.
//! * [`runtime`] — per-place state: measurable components, attestation
//!   sources, signers, certificate stores, and adversary corruption
//!   hooks ([`runtime::PlaceRuntime`], [`runtime::Environment`]).
//! * [`protocol`] — the executable evaluator: measurements read real
//!   component state, `!` signs, `#` hashes, `@P` exchanges counted
//!   messages ([`protocol::run_request`]).
//! * [`mod@appraise`] — the Appraiser: checks evidence shape against the
//!   policy's evidence type, verifies signatures against the key
//!   registry, compares measurements and attested sources to golden
//!   values, validates nonce binding ([`appraise::appraise`]).
//! * [`semantic`] — semantic appraisal: the
//!   [`semantic::RequireLintClean`] policy atom runs the `pda-analyze`
//!   static analyzer over a claimed dataplane program, so a verdict can
//!   reject rogue behavior even when the program's hash is on no
//!   blacklist.
//!
//! Together these instantiate Fig. 1: the Relying Party issues a Claim
//! (a Copland request + nonce), the Attester produces Evidence
//! (`run_request`), the Appraiser produces an Attestation Result
//! (`appraise`).

pub mod appraise;
pub mod evidence;
pub mod protocol;
pub mod runtime;
pub mod semantic;

pub use appraise::{appraise, AppraisalResult, Failure};
pub use evidence::Ev;
pub use protocol::{run_phrase, run_request, ProtocolError, RunReport, RunStats};
pub use runtime::{Component, Environment, PlaceRuntime};
pub use semantic::{RequireLintClean, SemanticAppraisal};
