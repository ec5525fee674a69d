//! # pda-crypto
//!
//! From-scratch cryptographic substrate for the programmable-dataplane
//! remote-attestation stack (`pda`). Models the *trusted evidence-
//! producing hardware components* of the paper's threat model (§3): the
//! primitives a root of trust would provide in silicon — measurement
//! hashing, keyed MACs, digital signatures, nonce freshness — implemented
//! as auditable software.
//!
//! ## Modules
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 (NIST-vector tested).
//! * [`hmac`] — HMAC-SHA-256 (RFC 4231-vector tested) + constant-time eq.
//! * [`digest`] — 32-byte [`digest::Digest`] newtype with chaining.
//! * [`lamport`] — Lamport one-time signatures.
//! * [`merkle`] — Merkle trees, membership proofs, and a many-time
//!   signature scheme over Lamport leaves.
//! * [`sig`] — pluggable signing backends (HMAC / Lamport / Merkle-MSS)
//!   behind one [`sig::Signer`]/[`sig::verify`] interface.
//! * [`batch`] — batch-amortized signing: one root signature over a
//!   Merkle commitment of N messages, per-leaf inclusion proofs.
//! * [`nonce`] — nonces and replay windows.
//! * [`keyreg`] — principal→key registry with operator pseudonyms.
//!
//! ## Why hash-based signatures?
//!
//! The offered dependency set has no crypto crates, and TPM/crypto
//! bindings were flagged immature for this target. Hash-based schemes
//! (Lamport, Merkle-MSS) are real public-key signatures whose security
//! reduces to SHA-256 preimage resistance, need no bignum arithmetic, and
//! have the same protocol-level shape (register verification key; sign;
//! anyone verifies) as the ECDSA/RSA a production root of trust would
//! use. See DESIGN.md §1.

pub mod batch;
pub mod digest;
pub mod hmac;
pub mod keyreg;
pub mod lamport;
pub mod merkle;
pub mod nonce;
pub mod sha256;
pub mod sig;

pub use batch::{sign_batch, BatchCommit, BatchLeaf};
pub use digest::{hex_decode, hex_encode, Digest};
pub use keyreg::{KeyRegistry, PrincipalId, RegistryError};
pub use nonce::{Nonce, ReplayWindow};
pub use sig::{SigScheme, SignError, Signature, Signer, VerifyKey};
