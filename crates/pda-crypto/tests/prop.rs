//! Property-based tests for the crypto substrate.

use pda_crypto::digest::Digest;
use pda_crypto::hmac::{ct_eq, hmac_sha256};
use pda_crypto::keyreg::{KeyRegistry, PrincipalId};
use pda_crypto::lamport::{lamport_verify, LamportSecretKey};
use pda_crypto::merkle::{merkle_proof_verify, merkle_verify, MerkleSigner, MerkleTree};
use pda_crypto::nonce::{Nonce, ReplayWindow};
use pda_crypto::sha256::Sha256;
use pda_crypto::sig::{verify, SigScheme, Signature, Signer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Incremental hashing over arbitrary chunkings equals one-shot.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                 cuts in proptest::collection::vec(0usize..2048, 0..8)) {
        let oneshot = Sha256::digest(&data);
        let mut points: Vec<usize> = cuts.into_iter().map(|c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        points.dedup();
        let mut h = Sha256::new();
        let mut prev = 0;
        for p in points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    /// Distinct inputs (very likely) hash differently; equal inputs always equal.
    #[test]
    fn sha256_deterministic(a in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assert_eq!(Sha256::digest(&a), Sha256::digest(&a));
    }

    /// A single bit flip anywhere changes the digest.
    #[test]
    fn sha256_bit_flip_changes_digest(mut data in proptest::collection::vec(any::<u8>(), 1..256),
                                      idx in any::<usize>(), bit in 0u8..8) {
        let before = Sha256::digest(&data);
        let i = idx % data.len();
        data[i] ^= 1 << bit;
        prop_assert_ne!(Sha256::digest(&data), before);
    }

    /// HMAC tags differ across keys and across messages.
    #[test]
    fn hmac_key_and_msg_separation(k1 in proptest::collection::vec(any::<u8>(), 1..64),
                                   k2 in proptest::collection::vec(any::<u8>(), 1..64),
                                   msg in proptest::collection::vec(any::<u8>(), 0..128)) {
        let t1 = hmac_sha256(&k1, &msg);
        let t2 = hmac_sha256(&k2, &msg);
        if k1 != k2 {
            prop_assert_ne!(t1, t2);
        } else {
            prop_assert_eq!(t1, t2);
        }
        prop_assert!(ct_eq(&t1, &t1));
    }

    /// Digest chaining is injective with respect to order.
    #[test]
    fn digest_chain_order(a in proptest::collection::vec(any::<u8>(), 1..32),
                          b in proptest::collection::vec(any::<u8>(), 1..32)) {
        prop_assume!(a != b);
        let ab = Digest::ZERO.chain(&a).chain(&b);
        let ba = Digest::ZERO.chain(&b).chain(&a);
        prop_assert_ne!(ab, ba);
    }

    /// Merkle membership proofs verify for every leaf, and fail for
    /// every other leaf's data.
    #[test]
    fn merkle_proofs_sound(leaves in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 1..16), 1..24)) {
        let tree = MerkleTree::build(&leaves);
        let root = tree.root();
        for (i, leaf) in leaves.iter().enumerate() {
            let proof = tree.prove(i).unwrap();
            prop_assert!(merkle_proof_verify(&root, leaf, &proof));
            // Wrong data under the same proof must fail.
            let mut wrong = leaf.clone();
            wrong.push(0xFF);
            prop_assert!(!merkle_proof_verify(&root, &wrong, &proof));
        }
    }

    /// Lamport: sign/verify round-trips; a flipped message bit fails.
    #[test]
    fn lamport_soundness(seed in any::<[u8; 32]>(), index in 0u64..16,
                         msg in proptest::collection::vec(any::<u8>(), 1..64),
                         flip in any::<usize>()) {
        let (sk, pk) = LamportSecretKey::derive(&seed, index);
        let sig = sk.sign(&msg);
        prop_assert!(lamport_verify(&pk, &msg, &sig));
        let mut tampered = msg.clone();
        let i = flip % tampered.len();
        tampered[i] ^= 1;
        prop_assert!(!lamport_verify(&pk, &tampered, &sig));
    }

    /// All three signer backends: verify succeeds for the right message
    /// and fails for any different message.
    #[test]
    fn signer_backends_sound(seed in any::<[u8; 32]>(),
                             msg in proptest::collection::vec(any::<u8>(), 1..64),
                             other in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(msg != other);
        for scheme in SigScheme::ALL {
            let mut signer = Signer::new(scheme, seed, 2);
            let vk = signer.verify_key(4);
            let sig = signer.sign(&msg).unwrap();
            prop_assert!(verify(&vk, &msg, &sig), "{scheme}");
            prop_assert!(!verify(&vk, &other, &sig), "{scheme}");
        }
    }

    /// A registry's verdict (HMAC through its stored key schedule) is
    /// `sig::verify`'s under the registered key, for every scheme, plain
    /// and batch signatures, the signer's and another principal's key,
    /// and good and tampered messages and signatures.
    #[test]
    fn registry_verification_matches_sig_verify(
        seed in any::<[u8; 32]>(),
        other_seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..96),
        other in proptest::collection::vec(any::<u8>(), 0..96),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        for scheme in SigScheme::ALL {
            let mut signer = Signer::new(scheme, seed, 2);
            let mut registry = KeyRegistry::new();
            registry.register(PrincipalId::new("sw"), signer.verify_key(4));
            registry.register(
                PrincipalId::new("peer"),
                Signer::new(scheme, other_seed, 2).verify_key(4),
            );
            let mut sigs = vec![signer.sign(&msg).unwrap()];
            sigs.extend(signer.sign_batch(&[&msg, &other]).unwrap());
            // Tampered copies: one bit flipped in the wire encoding, kept
            // when it still decodes.
            for i in 0..sigs.len() {
                for &(at, bit) in &flips {
                    let mut wire = Vec::new();
                    sigs[i].write_wire(&mut wire);
                    let n = wire.len();
                    wire[at % n] ^= 1 << bit;
                    if let Some((t, _)) = Signature::read_wire(&wire) {
                        sigs.push(t);
                    }
                }
            }
            for who in ["sw", "peer"] {
                let key = registry.key_of(who).unwrap();
                for m in [&msg, &other] {
                    for s in &sigs {
                        prop_assert_eq!(
                            registry.verify_as(who, m, s),
                            Ok(verify(key, m, s)),
                            "{} as {}", scheme, who
                        );
                        prop_assert_eq!(
                            registry.verify_as(&PrincipalId::new(who), m, s),
                            Ok(verify(key, m, s))
                        );
                    }
                }
            }
            prop_assert_eq!(registry.verify_as("sw", &msg, &sigs[0]), Ok(true));
            prop_assert!(registry.verify_as("ghost", &msg, &sigs[0]).is_err());
        }
    }

    /// Merkle-MSS: every signature up to capacity verifies; indexes are
    /// never reused.
    #[test]
    fn mss_no_reuse(seed in any::<[u8; 32]>()) {
        let mut signer = MerkleSigner::new(seed, 2);
        let root = signer.public_root();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            let msg = [i as u8; 8];
            let sig = signer.sign(&msg).unwrap();
            prop_assert!(merkle_verify(&root, &msg, &sig));
            prop_assert!(seen.insert(sig.index));
        }
        prop_assert!(signer.sign(b"over").is_err());
    }

    /// Replay windows never accept the same nonce twice within an epoch.
    #[test]
    fn replay_window_rejects_dups(nonces in proptest::collection::vec(any::<u64>(), 1..64)) {
        let mut w = ReplayWindow::new(1024);
        let mut seen = std::collections::HashSet::new();
        for n in nonces {
            let fresh = seen.insert(n);
            prop_assert_eq!(w.check_and_record(Nonce(n)), fresh);
        }
    }
}
