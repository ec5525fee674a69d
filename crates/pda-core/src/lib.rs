//! # pda-core
//!
//! The top-level facade of the **pda** stack — a full-system Rust
//! reproduction of *"A Case for Remote Attestation in Programmable
//! Dataplanes"* (HotNets '22).
//!
//! The stack, bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | [`pda_crypto`] | root-of-trust primitives (SHA-256, HMAC, hash-based signatures, key registry, nonces) |
//! | [`pda_copland`] | the Copland RA policy language: parser, evidence & event semantics, adversary analysis |
//! | [`pda_netkat`] | NetKAT: semantics, equivalence, reachability |
//! | [`pda_hybrid`] | network-aware Copland (§5.1): `∀`/`∗⇒`/`▶`, path resolution, §5.2 wire format |
//! | [`pda_ra`] | concrete RA execution and appraisal (Fig. 1) |
//! | [`pda_dataplane`] | PISA pipeline simulator + baseline P4-style programs |
//! | [`pda_pera`] | PERA: PISA extended with RA (Figs. 2-4) |
//! | [`pda_netsim`] | deterministic discrete-event network simulator |
//!
//! This crate adds executable versions of the paper's five use cases
//! ([`usecases`]) and the `pda` CLI. Golden-value chain appraisal lives
//! in [`pda_pera::golden`], simulator enrollment in
//! [`pda_netsim::enroll_golden`]; the prelude re-exports both.
//!
//! ## Quickstart
//!
//! ```
//! use pda_core::prelude::*;
//!
//! // A 3-switch path, attesting hardware+program per packet.
//! let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
//! let mut net = linear_path(3, &config, &[]);
//! let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
//!
//! // Send an attested packet; evidence accumulates in-band.
//! net.send_attested(Nonce(7), EvidenceMode::InBand, b"payload!");
//! let chains = net.server_chains();
//! let chain = &chains[0].chain;
//!
//! // UC1: every hop attests its vetted program.
//! let hops = uc1_configuration_assurance(chain, &net.sim.registry, &golden, Nonce(7))
//!     .expect("clean network appraises clean");
//! assert_eq!(hops, 3);
//! ```

pub mod usecases;

pub use usecases::{
    enroll_golden, uc1_configuration_assurance, uc2_path_authentication, uc5_cross_attestation,
    AuditCommitment, AuditTrail, CrossAttestation, PathAuthScore,
};

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::usecases::{
        enroll_golden, uc1_configuration_assurance, uc2_path_authentication, uc5_cross_attestation,
        AuditTrail, CrossAttestation,
    };
    pub use pda_copland::adversary::{analyze, AdversaryModel, Verdict};
    pub use pda_copland::parser::parse_request;
    pub use pda_copland::{eval_request, pretty_request};
    pub use pda_crypto::digest::Digest;
    pub use pda_crypto::nonce::Nonce;
    pub use pda_crypto::sig::SigScheme;
    pub use pda_hybrid::parser::parse_hybrid;
    pub use pda_hybrid::resolve::{resolve, Composition, NodeInfo};
    pub use pda_netsim::{linear_path, EvidenceMode, SimPacket, Simulator};
    pub use pda_pera::config::{DetailLevel, EvidenceComposition, PeraConfig, Sampling};
    pub use pda_pera::evidence::{verify_chain, ChainFailure};
    pub use pda_pera::golden::{appraise_chain, GoldenStore};
    pub use pda_pera::switch::PeraSwitch;
    pub use pda_ra::protocol::run_request;
    pub use pda_ra::runtime::{Environment, PlaceRuntime};
}
