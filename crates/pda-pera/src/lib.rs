//! # pda-pera
//!
//! **PERA — "PISA Extended with Remote Attestation"** (§5, Figs. 2-3):
//! the paper's proposed hardware extension, simulated. A
//! [`switch::PeraSwitch`] wraps a `pda-dataplane` pipeline with:
//!
//! * a **sign/verify unit** ([`pda_crypto::sig`]) producing per-hop
//!   [`evidence::EvidenceRecord`]s,
//! * an **evidence engine** (create / inspect / compose) supporting both
//!   the in-band and out-of-band flows of Fig. 2,
//! * the **Fig. 4 configuration surface** ([`config::PeraConfig`]):
//!   detail levels ordered by inertia, sampling frequency, and
//!   pointwise-vs-chained composition,
//! * an **inertia-keyed evidence cache** ([`cache::EvidenceCache`])
//!   invalidated by program reloads, table updates, and register writes.
//!
//! Verification of hop-evidence chains (linkage, signatures, nonce,
//! tamper detection) is in [`evidence::verify_chain`]; reference
//! values — the digest rule, enrollment, and appraisal against them —
//! are in [`golden`].

pub mod cache;
pub mod config;
pub mod evidence;
pub mod golden;
pub mod switch;
pub mod verify_unit;

pub use cache::{CacheStats, EvidenceCache};
pub use config::{DetailLevel, EvidenceComposition, PeraConfig, Sampling};
pub use evidence::{assemble_chain, verify_chain, ChainFailure, EvidenceRecord, PendingRecord};
pub use golden::{appraise_chain, reference_digest, GoldenStore};
pub use switch::{PeraBatchOutput, PeraOutput, PeraStats, PeraSwitch};
pub use verify_unit::{
    AdmissionPolicy, FailMode, Verdict as AdmissionVerdict, VerifyStats, VerifyUnit,
};
