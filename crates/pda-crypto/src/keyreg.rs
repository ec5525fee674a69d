//! Key registry: maps principal identities to verification keys.
//!
//! Appraisers hold a registry binding each attesting device/process to
//! its registered [`VerifyKey`]. The registry also implements the paper's
//! *pseudonym* feature (§2, footnotes 1-2): "instead of revealing their
//! actual serial number, switches could be assigned a per-user pseudonym
//! by the operator", liftable "by an auditor's request or court order".

use crate::digest::Digest;
use crate::hmac::HmacKeySchedule;
use crate::sig::{verify_scheduled, Signature, VerifyKey};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A principal identity (device serial, process name, place name).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub String);

impl PrincipalId {
    /// Construct from anything string-like.
    pub fn new(s: impl Into<String>) -> PrincipalId {
        PrincipalId(s.into())
    }
}

impl fmt::Debug for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Principal({})", self.0)
    }
}

impl fmt::Display for PrincipalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for PrincipalId {
    fn from(s: &str) -> Self {
        PrincipalId(s.to_string())
    }
}

/// Lets the registry be asked by `&str` without building an id.
impl Borrow<str> for PrincipalId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// Error from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No key registered for the principal.
    UnknownPrincipal(PrincipalId),
    /// Pseudonym does not resolve.
    UnknownPseudonym(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPrincipal(p) => write!(f, "no key registered for {p}"),
            RegistryError::UnknownPseudonym(s) => write!(f, "pseudonym {s} does not resolve"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// A principal's registered key, with the HMAC key schedule built once
/// at registration (`None` for the other schemes), so that verifying a
/// tag costs two SHA-256 compressions rather than four.
#[derive(Clone)]
struct Registered {
    key: VerifyKey,
    hmac: Option<HmacKeySchedule>,
}

/// Registry of verification keys and pseudonyms.
#[derive(Clone, Default)]
pub struct KeyRegistry {
    keys: HashMap<PrincipalId, Registered>,
    /// pseudonym -> real principal (the "liftable" mapping held by the
    /// operator; appraisers without audit authority never see it).
    pseudonyms: HashMap<String, PrincipalId>,
}

impl fmt::Debug for KeyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "KeyRegistry({} keys, {} pseudonyms)",
            self.keys.len(),
            self.pseudonyms.len()
        )
    }
}

impl KeyRegistry {
    /// Empty registry.
    pub fn new() -> KeyRegistry {
        KeyRegistry::default()
    }

    /// Register (or replace) the key for a principal.
    pub fn register(&mut self, who: PrincipalId, key: VerifyKey) {
        let hmac = match &key {
            VerifyKey::Hmac(k) => Some(HmacKeySchedule::new(k)),
            _ => None,
        };
        self.keys.insert(who, Registered { key, hmac });
    }

    fn registered<Q>(&self, who: &Q) -> Result<&Registered, RegistryError>
    where
        PrincipalId: Borrow<Q>,
        Q: Hash + Eq + fmt::Display + ?Sized,
    {
        self.keys
            .get(who)
            .ok_or_else(|| RegistryError::UnknownPrincipal(PrincipalId::new(who.to_string())))
    }

    /// Fetch a principal's key (by [`PrincipalId`] or by `&str`).
    pub fn key_of<Q>(&self, who: &Q) -> Result<&VerifyKey, RegistryError>
    where
        PrincipalId: Borrow<Q>,
        Q: Hash + Eq + fmt::Display + ?Sized,
    {
        Ok(&self.registered(who)?.key)
    }

    /// Verify `sig` over `msg` as produced by `who` (by [`PrincipalId`]
    /// or by `&str`). Agrees with [`crate::sig::verify`] under the
    /// registered key; HMAC tags are recomputed from the stored key
    /// schedule and compared in constant time.
    pub fn verify_as<Q>(&self, who: &Q, msg: &[u8], sig: &Signature) -> Result<bool, RegistryError>
    where
        PrincipalId: Borrow<Q>,
        Q: Hash + Eq + fmt::Display + ?Sized,
    {
        let r = self.registered(who)?;
        Ok(verify_scheduled(&r.key, r.hmac.as_ref(), msg, sig))
    }

    /// Is a key registered for `who` (by [`PrincipalId`] or by `&str`)?
    pub fn contains<Q>(&self, who: &Q) -> bool
    where
        PrincipalId: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.keys.contains_key(who)
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Assign a deterministic per-user pseudonym to a principal.
    ///
    /// The pseudonym is `H(user-context || principal)` truncated to hex,
    /// so different users see different, unlinkable names for the same
    /// switch, while the operator can regenerate and hence resolve them.
    pub fn assign_pseudonym(&mut self, user_context: &str, who: &PrincipalId) -> String {
        let d = Digest::of_parts(&[b"pseudonym", user_context.as_bytes(), who.0.as_bytes()]);
        let name = format!("pseud-{}", d.short());
        self.pseudonyms.insert(name.clone(), who.clone());
        name
    }

    /// Lift a pseudonym back to the real principal — the auditor/court
    /// path from the paper's footnote 2.
    pub fn lift_pseudonym(&self, pseud: &str) -> Result<&PrincipalId, RegistryError> {
        self.pseudonyms
            .get(pseud)
            .ok_or_else(|| RegistryError::UnknownPseudonym(pseud.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sig::{SigScheme, Signer};

    #[test]
    fn register_and_verify() {
        let mut reg = KeyRegistry::new();
        let mut signer = Signer::new(SigScheme::Hmac, [3u8; 32], 0);
        let sw1: PrincipalId = "switch-1".into();
        reg.register(sw1.clone(), signer.verify_key(0));
        let sig = signer.sign(b"claim").unwrap();
        assert_eq!(reg.verify_as(&sw1, b"claim", &sig), Ok(true));
        assert_eq!(reg.verify_as(&sw1, b"forged", &sig), Ok(false));
    }

    #[test]
    fn unknown_principal_is_error() {
        let reg = KeyRegistry::new();
        let mut signer = Signer::new(SigScheme::Hmac, [3u8; 32], 0);
        let sig = signer.sign(b"claim").unwrap();
        assert!(matches!(
            reg.verify_as("ghost", b"claim", &sig),
            Err(RegistryError::UnknownPrincipal(_))
        ));
    }

    #[test]
    fn reregistration_replaces_key() {
        let mut reg = KeyRegistry::new();
        let mut old = Signer::new(SigScheme::Hmac, [1u8; 32], 0);
        let mut new = Signer::new(SigScheme::Hmac, [2u8; 32], 0);
        let id: PrincipalId = "sw".into();
        reg.register(id.clone(), old.verify_key(0));
        reg.register(id.clone(), new.verify_key(0));
        let old_sig = old.sign(b"m").unwrap();
        let new_sig = new.sign(b"m").unwrap();
        assert_eq!(reg.verify_as(&id, b"m", &old_sig), Ok(false));
        assert_eq!(reg.verify_as(&id, b"m", &new_sig), Ok(true));
    }

    #[test]
    fn pseudonyms_resolve_and_differ_per_user() {
        let mut reg = KeyRegistry::new();
        let id: PrincipalId = "switch-47".into();
        let p_alice = reg.assign_pseudonym("alice", &id);
        let p_bob = reg.assign_pseudonym("bob", &id);
        assert_ne!(p_alice, p_bob, "pseudonyms must be unlinkable per user");
        assert_eq!(reg.lift_pseudonym(&p_alice).unwrap(), &id);
        assert_eq!(reg.lift_pseudonym(&p_bob).unwrap(), &id);
        assert!(reg.lift_pseudonym("pseud-00000000").is_err());
    }

    #[test]
    fn pseudonyms_deterministic() {
        let mut reg = KeyRegistry::new();
        let id: PrincipalId = "switch-47".into();
        let p1 = reg.assign_pseudonym("alice", &id);
        let p2 = reg.assign_pseudonym("alice", &id);
        assert_eq!(p1, p2);
    }
}
