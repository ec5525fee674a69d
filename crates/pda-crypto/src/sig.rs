//! Pluggable signing backends for attestation evidence.
//!
//! Fig. 3's caption says evidence-handling is "tuned to balance
//! performance and security"; this module is the tuning knob for the
//! signing axis. Three backends with very different cost/size/security
//! profiles share one interface:
//!
//! * [`SigScheme::Hmac`] — symmetric, 32-byte tags, cheapest; models a
//!   shared-key deployment where the appraiser also holds the key.
//! * [`SigScheme::LamportOts`] — one derived key per signature, public
//!   verification, 8 KiB signatures; models a hardware OTS unit whose
//!   epoch keys are pre-registered with the appraiser.
//! * [`SigScheme::MerkleMss`] — long-lived device identity: one 32-byte
//!   root verifies many signatures via authentication paths.
//!
//! The ablation experiments E7/E11 (DESIGN.md §4) sweep these backends.

use crate::batch::BatchLeaf;
use crate::digest::Digest;
use crate::hmac::{ct_eq, HmacKeySchedule};
use crate::lamport::{lamport_verify, LamportPublicKey, LamportSecretKey, LamportSignature};
use crate::merkle::{merkle_proof_verify, merkle_verify, MerkleSignature, MerkleSigner, MssError};
use std::fmt;

/// Which signing backend a device uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SigScheme {
    /// HMAC-SHA-256 with a key shared with the appraiser.
    Hmac,
    /// Per-message Lamport one-time signatures (key derived per epoch,
    /// epoch public keys pre-registered with verifiers).
    LamportOts,
    /// Merkle many-time signatures under one long-lived root.
    MerkleMss,
}

impl SigScheme {
    /// All backends, for parameter sweeps.
    pub const ALL: [SigScheme; 3] = [SigScheme::Hmac, SigScheme::LamportOts, SigScheme::MerkleMss];
}

impl fmt::Display for SigScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SigScheme::Hmac => write!(f, "hmac"),
            SigScheme::LamportOts => write!(f, "lamport-ots"),
            SigScheme::MerkleMss => write!(f, "merkle-mss"),
        }
    }
}

/// A signature value from any backend.
#[derive(Clone)]
pub enum Signature {
    /// 32-byte HMAC tag.
    Hmac([u8; 32]),
    /// Lamport signature plus the index of the derived epoch key used.
    Lamport {
        /// Epoch/index of the derived one-time key.
        index: u64,
        /// The one-time signature.
        sig: LamportSignature,
    },
    /// Merkle many-time signature.
    Merkle(Box<MerkleSignature>),
    /// One leaf's share of a batch signature (see [`crate::batch`]): an
    /// inclusion proof under a Merkle root plus a shared reference to
    /// the one real signature over that root.
    Batch(BatchLeaf),
}

impl Signature {
    /// Bytes this signature occupies on the wire — the quantity the
    /// overhead experiments track.
    ///
    /// For [`Signature::Batch`] this is the *amortized* per-leaf share:
    /// the leaf's own proof bytes plus `1/N`th of the shared root
    /// commitment and signature, which is what a wire format that sends
    /// the commitment once per batch actually costs per record.
    pub fn wire_size(&self) -> usize {
        match self {
            Signature::Hmac(_) => 32,
            Signature::Lamport { .. } => 8 + LamportSignature::SIZE,
            Signature::Merkle(m) => m.wire_size(),
            Signature::Batch(b) => {
                let own = 8 + b.proof.siblings.len() * 33;
                let shared = 32 + b.commit.root_sig.wire_size();
                own + shared.div_ceil(b.commit.len.max(1) as usize)
            }
        }
    }

    /// The scheme this signature belongs to. A batch signature belongs
    /// to its **root** signature's scheme — registries and telemetry
    /// treat a batch leaf exactly like the signature that anchors it.
    pub fn scheme(&self) -> SigScheme {
        match self {
            Signature::Hmac(_) => SigScheme::Hmac,
            Signature::Lamport { .. } => SigScheme::LamportOts,
            Signature::Merkle(_) => SigScheme::MerkleMss,
            Signature::Batch(b) => b.commit.root_sig.scheme(),
        }
    }

    /// Human-readable kind label: the scheme name, wrapped in
    /// `batch(...)` for batch leaves — what audit-log events record, so
    /// batched and per-packet runs stay distinguishable after the fact.
    pub fn label(&self) -> String {
        match self {
            Signature::Batch(b) => format!("batch({})", b.commit.root_sig.scheme()),
            other => other.scheme().to_string(),
        }
    }

    /// Append a self-contained, tagged encoding to `out` — the zero-copy
    /// wire path: large signatures write straight into the caller's
    /// buffer through the slice serializers instead of bouncing through
    /// per-signature `Vec`s. (Unlike [`Signature::wire_size`], which
    /// estimates the *amortized* payload for batch leaves, this writes
    /// the full self-contained encoding including framing tags.)
    pub fn write_wire(&self, out: &mut Vec<u8>) {
        fn put_lamport(out: &mut Vec<u8>, sig: &LamportSignature) {
            let off = out.len();
            out.resize(off + LamportSignature::SIZE, 0);
            sig.write_to(&mut out[off..]).expect("sized buffer");
        }
        fn put_proof(out: &mut Vec<u8>, proof: &crate::merkle::MerkleProof) {
            out.extend_from_slice(&(proof.index as u64).to_be_bytes());
            out.extend_from_slice(&(proof.siblings.len() as u32).to_be_bytes());
            for sib in &proof.siblings {
                match sib {
                    Some(d) => {
                        out.push(1);
                        out.extend_from_slice(d.as_bytes());
                    }
                    None => out.push(0),
                }
            }
        }
        match self {
            Signature::Hmac(tag) => {
                out.push(0);
                out.extend_from_slice(tag);
            }
            Signature::Lamport { index, sig } => {
                out.push(1);
                out.extend_from_slice(&index.to_be_bytes());
                put_lamport(out, sig);
            }
            Signature::Merkle(m) => {
                out.push(2);
                out.extend_from_slice(&(m.index as u64).to_be_bytes());
                let off = out.len();
                out.resize(off + LamportPublicKey::SIZE, 0);
                m.ots_public
                    .write_to(&mut out[off..])
                    .expect("sized buffer");
                put_lamport(out, &m.ots_sig);
                put_proof(out, &m.proof);
            }
            Signature::Batch(b) => {
                out.push(3);
                put_proof(out, &b.proof);
                out.extend_from_slice(b.commit.root.as_bytes());
                out.extend_from_slice(&b.commit.len.to_be_bytes());
                b.commit.root_sig.write_wire(out);
            }
        }
    }
}

/// Bounds-checked cursor over untrusted wire bytes. Every accessor
/// returns `None` instead of panicking — the decode path faces network
/// input, so there must be no slice-index panics.
struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    fn new(buf: &'a [u8]) -> WireCursor<'a> {
        WireCursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32_be(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_be_bytes(s.try_into().expect("4B")))
    }

    fn u64_be(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_be_bytes(s.try_into().expect("8B")))
    }

    fn digest(&mut self) -> Option<Digest> {
        let s = self.take(32)?;
        let mut d = [0u8; 32];
        d.copy_from_slice(s);
        Some(Digest(d))
    }
}

/// Hard cap on decoded Merkle proof depth: a tree of 2^64 leaves needs
/// 64 levels, so anything deeper is garbage and would otherwise let a
/// hostile length prefix drive allocation.
const MAX_PROOF_DEPTH: u32 = 64;

fn read_proof(c: &mut WireCursor<'_>) -> Option<crate::merkle::MerkleProof> {
    let index = c.u64_be()? as usize;
    let n = c.u32_be()?;
    if n > MAX_PROOF_DEPTH {
        return None;
    }
    let mut siblings = Vec::with_capacity(n as usize);
    for _ in 0..n {
        siblings.push(match c.u8()? {
            0 => None,
            1 => Some(c.digest()?),
            _ => return None,
        });
    }
    Some(crate::merkle::MerkleProof { index, siblings })
}

fn read_signature(c: &mut WireCursor<'_>, allow_batch: bool) -> Option<Signature> {
    match c.u8()? {
        0 => {
            let mut tag = [0u8; 32];
            tag.copy_from_slice(c.take(32)?);
            Some(Signature::Hmac(tag))
        }
        1 => {
            let index = c.u64_be()?;
            let sig = LamportSignature::read_from(c.take(LamportSignature::SIZE)?)?;
            Some(Signature::Lamport { index, sig })
        }
        2 => {
            let index = c.u64_be()? as usize;
            let ots_public = LamportPublicKey::read_from(c.take(LamportPublicKey::SIZE)?)?;
            let ots_sig = LamportSignature::read_from(c.take(LamportSignature::SIZE)?)?;
            let proof = read_proof(c)?;
            Some(Signature::Merkle(Box::new(MerkleSignature {
                index,
                ots_public,
                ots_sig,
                proof,
            })))
        }
        3 if allow_batch => {
            let proof = read_proof(c)?;
            let root = c.digest()?;
            let len = c.u32_be()?;
            // A batch must bottom out in one real signature; nested
            // batch framing is rejected exactly like `verify` rejects it.
            let root_sig = read_signature(c, false)?;
            Some(Signature::Batch(BatchLeaf {
                proof,
                commit: std::sync::Arc::new(crate::batch::BatchCommit {
                    root,
                    len,
                    root_sig,
                }),
            }))
        }
        _ => None,
    }
}

impl Signature {
    /// Decode one signature from the front of `buf`: the inverse of
    /// [`Signature::write_wire`]. Returns the signature and the number
    /// of bytes consumed, or `None` on truncated, malformed, or
    /// nested-batch input. Never panics on arbitrary bytes.
    pub fn read_wire(buf: &[u8]) -> Option<(Signature, usize)> {
        let mut c = WireCursor::new(buf);
        let sig = read_signature(&mut c, true)?;
        Some((sig, c.pos))
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({}, {}B)", self.scheme(), self.wire_size())
    }
}

/// A signing identity owned by one device/principal.
pub struct Signer {
    scheme: SigScheme,
    /// Secret seed: HMAC key, or Lamport/Merkle derivation seed.
    seed: [u8; 32],
    /// Next Lamport epoch index (LamportOts only).
    next_epoch: u64,
    /// Merkle signer state (MerkleMss only).
    mss: Option<MerkleSigner>,
    /// Precomputed HMAC key schedule (Hmac only): the key is fixed for
    /// the signer's lifetime, so the ipad/opad compressions are paid
    /// once here instead of on every signed record.
    hmac_ks: Option<HmacKeySchedule>,
}

/// The verification-side key material, safe to hand to appraisers.
///
/// For `LamportOts` the registered material is the list of pre-committed
/// epoch public keys. This trades registry size for simplicity — a real
/// deployment would register fingerprints and have the signer disclose
/// keys in-band; the *security argument is identical* (the appraiser pins
/// exactly the same key bits either way), so the simulation keeps the
/// simpler form and accounts wire size via [`Signature::wire_size`].
#[derive(Clone)]
pub enum VerifyKey {
    /// HMAC shares the secret.
    Hmac([u8; 32]),
    /// Pre-committed epoch public keys, index = epoch.
    Lamport(Vec<LamportPublicKey>),
    /// Merkle root of the device identity tree.
    Merkle(Digest),
}

impl VerifyKey {
    /// A compact digest identifying this key (usable as a key ID).
    pub fn key_id(&self) -> Digest {
        match self {
            VerifyKey::Hmac(k) => Digest::of_parts(&[b"hmac-key-id", k]),
            VerifyKey::Lamport(keys) => {
                let mut acc = Digest::of(b"lamport-key-id");
                for k in keys {
                    acc = acc.chain(&k.fingerprint());
                }
                acc
            }
            VerifyKey::Merkle(root) => Digest::of_parts(&[b"merkle-key-id", root.as_bytes()]),
        }
    }
}

/// Errors from signing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignError {
    /// One-time/many-time key supply exhausted.
    KeysExhausted,
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::KeysExhausted => write!(f, "signing keys exhausted"),
        }
    }
}

impl std::error::Error for SignError {}

impl From<MssError> for SignError {
    fn from(_: MssError) -> Self {
        SignError::KeysExhausted
    }
}

impl Signer {
    /// Create a signer. `mss_height` controls the Merkle tree size for
    /// [`SigScheme::MerkleMss`] (2^height signatures); ignored otherwise.
    pub fn new(scheme: SigScheme, seed: [u8; 32], mss_height: u32) -> Signer {
        let mss = match scheme {
            SigScheme::MerkleMss => Some(MerkleSigner::new(seed, mss_height)),
            _ => None,
        };
        let hmac_ks = match scheme {
            SigScheme::Hmac => Some(HmacKeySchedule::new(&seed)),
            _ => None,
        };
        Signer {
            scheme,
            seed,
            next_epoch: 0,
            mss,
            hmac_ks,
        }
    }

    /// The scheme in use.
    pub fn scheme(&self) -> SigScheme {
        self.scheme
    }

    /// Produce the verification key to register with appraisers.
    ///
    /// `epochs` bounds how many Lamport epoch keys are pre-committed
    /// (ignored for the other schemes). Signatures past that epoch will
    /// not verify until the key is re-registered.
    pub fn verify_key(&self, epochs: u64) -> VerifyKey {
        match self.scheme {
            SigScheme::Hmac => VerifyKey::Hmac(self.seed),
            SigScheme::LamportOts => VerifyKey::Lamport(
                (0..epochs)
                    .map(|i| LamportSecretKey::derive(&self.seed, i).1)
                    .collect(),
            ),
            SigScheme::MerkleMss => VerifyKey::Merkle(
                self.mss
                    .as_ref()
                    .expect("MerkleMss signer has mss state")
                    .public_root(),
            ),
        }
    }

    /// Sign a message.
    pub fn sign(&mut self, msg: &[u8]) -> Result<Signature, SignError> {
        match self.scheme {
            SigScheme::Hmac => {
                let ks = self.hmac_ks.as_ref().expect("Hmac signer has key schedule");
                Ok(Signature::Hmac(ks.mac(msg)))
            }
            SigScheme::LamportOts => {
                let index = self.next_epoch;
                self.next_epoch += 1;
                let (sk, _) = LamportSecretKey::derive(&self.seed, index);
                Ok(Signature::Lamport {
                    index,
                    sig: sk.sign(msg),
                })
            }
            SigScheme::MerkleMss => {
                let mss = self.mss.as_mut().expect("MerkleMss signer has mss state");
                Ok(Signature::Merkle(Box::new(mss.sign(msg)?)))
            }
        }
    }

    /// Remaining signatures before key exhaustion (`None` = unlimited).
    pub fn remaining(&self) -> Option<usize> {
        self.mss.as_ref().map(|m| m.remaining())
    }

    /// Sign `msgs` as one batch: one key consumed, one
    /// [`Signature::Batch`] per message. See [`crate::batch::sign_batch`].
    pub fn sign_batch(&mut self, msgs: &[&[u8]]) -> Result<Vec<Signature>, SignError> {
        crate::batch::sign_batch(self, msgs)
    }
}

/// Verify a signature against a registered verification key.
///
/// A [`Signature::Batch`] leaf verifies in two steps: the message must
/// prove membership under the batch root, and the root signature must
/// verify under `key` exactly as a plain signature over the root bytes.
/// Nested batches (a batch anchored by another batch) are rejected —
/// amortization must bottom out in one real signing operation.
pub fn verify(key: &VerifyKey, msg: &[u8], sig: &Signature) -> bool {
    verify_scheduled(key, None, msg, sig)
}

/// [`verify`] given the HMAC key schedule of `key`, when the caller
/// keeps one (as [`crate::keyreg::KeyRegistry`] does): an HMAC tag then
/// costs two compressions instead of four. Without one, the schedule
/// is built for this call.
pub(crate) fn verify_scheduled(
    key: &VerifyKey,
    schedule: Option<&HmacKeySchedule>,
    msg: &[u8],
    sig: &Signature,
) -> bool {
    match (key, sig) {
        (VerifyKey::Hmac(k), Signature::Hmac(tag)) => {
            let mac = match schedule {
                Some(ks) => ks.mac(msg),
                None => HmacKeySchedule::new(k).mac(msg),
            };
            ct_eq(&mac, tag)
        }
        (VerifyKey::Lamport(keys), Signature::Lamport { index, sig }) => keys
            .get(*index as usize)
            .is_some_and(|pk| lamport_verify(pk, msg, sig)),
        (VerifyKey::Merkle(root), Signature::Merkle(m)) => merkle_verify(root, msg, m),
        (key, Signature::Batch(b)) => {
            !matches!(b.commit.root_sig, Signature::Batch(_))
                && merkle_proof_verify(&b.commit.root, msg, &b.proof)
                && verify_scheduled(key, schedule, b.commit.root.as_bytes(), &b.commit.root_sig)
        }
        _ => false, // scheme mismatch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmac_round_trip() {
        let mut s = Signer::new(SigScheme::Hmac, [5u8; 32], 0);
        let vk = s.verify_key(0);
        let sig = s.sign(b"msg").unwrap();
        assert!(verify(&vk, b"msg", &sig));
        assert!(!verify(&vk, b"other", &sig));
    }

    #[test]
    fn hmac_wrong_key_rejected() {
        let mut s = Signer::new(SigScheme::Hmac, [5u8; 32], 0);
        let other = Signer::new(SigScheme::Hmac, [6u8; 32], 0);
        let sig = s.sign(b"msg").unwrap();
        assert!(!verify(&other.verify_key(0), b"msg", &sig));
    }

    #[test]
    fn lamport_round_trip() {
        let mut s = Signer::new(SigScheme::LamportOts, [7u8; 32], 0);
        let vk = s.verify_key(4);
        for i in 0..4 {
            let m = format!("epoch {i}");
            let sig = s.sign(m.as_bytes()).unwrap();
            assert!(verify(&vk, m.as_bytes(), &sig));
            assert!(!verify(&vk, b"tampered", &sig));
        }
    }

    #[test]
    fn lamport_epoch_advances() {
        let mut s = Signer::new(SigScheme::LamportOts, [7u8; 32], 0);
        let a = s.sign(b"one").unwrap();
        let b = s.sign(b"two").unwrap();
        let (Signature::Lamport { index: ia, .. }, Signature::Lamport { index: ib, .. }) = (&a, &b)
        else {
            panic!()
        };
        assert_eq!((*ia, *ib), (0, 1));
    }

    #[test]
    fn lamport_uncommitted_epoch_rejected() {
        let mut s = Signer::new(SigScheme::LamportOts, [7u8; 32], 0);
        let vk = s.verify_key(1); // only epoch 0 committed
        s.sign(b"zero").unwrap();
        let sig = s.sign(b"one").unwrap(); // epoch 1, not committed
        assert!(!verify(&vk, b"one", &sig));
    }

    #[test]
    fn merkle_round_trip_and_exhaustion() {
        let mut s = Signer::new(SigScheme::MerkleMss, [8u8; 32], 2);
        let vk = s.verify_key(0);
        for i in 0..4 {
            let m = format!("m{i}");
            let sig = s.sign(m.as_bytes()).unwrap();
            assert!(verify(&vk, m.as_bytes(), &sig));
        }
        assert_eq!(s.sign(b"m4").unwrap_err(), SignError::KeysExhausted);
        assert_eq!(s.remaining(), Some(0));
    }

    #[test]
    fn scheme_mismatch_rejected() {
        let mut hmac = Signer::new(SigScheme::Hmac, [1u8; 32], 0);
        let mut mss = Signer::new(SigScheme::MerkleMss, [1u8; 32], 2);
        let hmac_sig = hmac.sign(b"m").unwrap();
        let mss_sig = mss.sign(b"m").unwrap();
        assert!(!verify(&mss.verify_key(0), b"m", &hmac_sig));
        assert!(!verify(&hmac.verify_key(0), b"m", &mss_sig));
    }

    #[test]
    fn wire_sizes_ordered_as_expected() {
        let mut h = Signer::new(SigScheme::Hmac, [1u8; 32], 0);
        let mut l = Signer::new(SigScheme::LamportOts, [1u8; 32], 0);
        let mut m = Signer::new(SigScheme::MerkleMss, [1u8; 32], 3);
        let sh = h.sign(b"x").unwrap().wire_size();
        let sl = l.sign(b"x").unwrap().wire_size();
        let sm = m.sign(b"x").unwrap().wire_size();
        assert!(sh < sl, "hmac ({sh}) < lamport ({sl})");
        assert!(sl < sm, "lamport ({sl}) < merkle ({sm})");
    }

    #[test]
    fn wire_round_trip_all_schemes() {
        let mut signers = [
            Signer::new(SigScheme::Hmac, [1u8; 32], 0),
            Signer::new(SigScheme::LamportOts, [2u8; 32], 0),
            Signer::new(SigScheme::MerkleMss, [3u8; 32], 2),
        ];
        for s in &mut signers {
            let vk = s.verify_key(4);
            let sig = s.sign(b"round-trip").unwrap();
            let mut wire = Vec::new();
            sig.write_wire(&mut wire);
            let (decoded, used) = Signature::read_wire(&wire).expect("decodes");
            assert_eq!(used, wire.len(), "{}: full frame consumed", s.scheme());
            assert!(verify(&vk, b"round-trip", &decoded), "{}", s.scheme());
            // Re-encoding is byte-identical.
            let mut wire2 = Vec::new();
            decoded.write_wire(&mut wire2);
            assert_eq!(wire, wire2, "{}: stable re-encode", s.scheme());
        }
    }

    #[test]
    fn wire_round_trip_batch() {
        let mut s = Signer::new(SigScheme::MerkleMss, [4u8; 32], 2);
        let vk = s.verify_key(0);
        let msgs: Vec<&[u8]> = vec![b"a", b"bb", b"ccc"];
        let sigs = s.sign_batch(&msgs).unwrap();
        for (msg, sig) in msgs.iter().zip(&sigs) {
            let mut wire = Vec::new();
            sig.write_wire(&mut wire);
            let (decoded, used) = Signature::read_wire(&wire).expect("decodes");
            assert_eq!(used, wire.len());
            assert!(verify(&vk, msg, &decoded));
        }
    }

    #[test]
    fn wire_decode_rejects_garbage_without_panicking() {
        assert!(Signature::read_wire(&[]).is_none());
        assert!(Signature::read_wire(&[9]).is_none(), "unknown tag");
        assert!(Signature::read_wire(&[0, 1, 2]).is_none(), "truncated hmac");
        // Hostile proof depth must be rejected, not allocated.
        let mut evil = vec![3u8]; // batch tag
        evil.extend_from_slice(&u64::MAX.to_be_bytes()); // proof index
        evil.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd sibling count
        assert!(Signature::read_wire(&evil).is_none());
        // Truncations of a valid frame never panic and never decode.
        let mut s = Signer::new(SigScheme::Hmac, [5u8; 32], 0);
        let mut wire = Vec::new();
        s.sign(b"m").unwrap().write_wire(&mut wire);
        for cut in 0..wire.len() {
            assert!(Signature::read_wire(&wire[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn key_ids_distinct_across_schemes_and_seeds() {
        let h1 = Signer::new(SigScheme::Hmac, [1u8; 32], 0).verify_key(0);
        let h2 = Signer::new(SigScheme::Hmac, [2u8; 32], 0).verify_key(0);
        let l1 = Signer::new(SigScheme::LamportOts, [1u8; 32], 0).verify_key(2);
        let m1 = Signer::new(SigScheme::MerkleMss, [1u8; 32], 2).verify_key(0);
        let ids = [h1.key_id(), h2.key_id(), l1.key_id(), m1.key_id()];
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i], ids[j], "{i} vs {j}");
            }
        }
    }
}
