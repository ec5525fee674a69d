//! HMAC-SHA-256 (RFC 2104), validated against RFC 4231 test vectors.
//!
//! HMAC serves two roles in this stack:
//! 1. As the *symmetric* signing backend for evidence (the "cheap" point
//!    in the performance/security design space of Fig. 4 — see
//!    [`crate::sig`] for the pluggable scheme abstraction).
//! 2. As the PRF used to derive per-epoch Lamport keys deterministically.

use crate::sha256::{Midstate, Sha256};

const BLOCK: usize = 64;

/// Compute `HMAC-SHA256(key, msg)`.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(msg);
    mac.finalize()
}

/// Precomputed HMAC key schedule: the compression states reached after
/// absorbing `key ⊕ ipad` and `key ⊕ opad`.
///
/// Those two blocks depend only on the key, yet a naive HMAC recomputes
/// both compressions for every message — for the 32-byte digests this
/// stack signs, that is two of the four SHA-256 compressions per tag.
/// Build the schedule once per key and every subsequent MAC starts from
/// the captured midstates instead.
#[derive(Clone, Copy, Debug)]
pub struct HmacKeySchedule {
    inner_start: Midstate,
    outer_start: Midstate,
}

impl HmacKeySchedule {
    /// Precompute the schedule for `key` (any length; keys longer than
    /// the block size are pre-hashed per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK];
        if key.len() > BLOCK {
            k[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKeySchedule {
            inner_start: inner.midstate().expect("ipad is exactly one block"),
            outer_start: outer.midstate().expect("opad is exactly one block"),
        }
    }

    /// One-shot MAC using the precomputed schedule.
    pub fn mac(&self, msg: &[u8]) -> [u8; 32] {
        let mut m = HmacSha256::with_key_schedule(self);
        m.update(msg);
        m.finalize()
    }

    /// MAC `L` equal-length messages in one multi-lane pass, exactly
    /// matching [`HmacKeySchedule::mac`] per lane. Both HMAC passes (the
    /// message absorption and the outer finalization) run 8-wide, which
    /// is where Lamport key derivation spends nearly all of its time.
    pub fn mac_many<const L: usize>(&self, msgs: [&[u8]; L]) -> [[u8; 32]; L] {
        let inner = crate::sha256::digest_many_from(self.inner_start, msgs);
        let inner_refs: [&[u8]; L] = std::array::from_fn(|l| inner[l].as_slice());
        crate::sha256::digest_many_from(self.outer_start, inner_refs)
    }
}

/// Incremental HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Outer hash state, already past the `key ⊕ opad` block.
    outer_start: Midstate,
}

impl HmacSha256 {
    /// Create a MAC instance keyed with `key` (any length; keys longer
    /// than the block size are pre-hashed per RFC 2104).
    ///
    /// Computes the key schedule from scratch; callers MACing many
    /// messages under one key should build an [`HmacKeySchedule`] once
    /// and use [`HmacSha256::with_key_schedule`].
    pub fn new(key: &[u8]) -> Self {
        HmacSha256::with_key_schedule(&HmacKeySchedule::new(key))
    }

    /// Create a MAC instance from a precomputed key schedule, skipping
    /// both key-block compressions.
    pub fn with_key_schedule(ks: &HmacKeySchedule) -> Self {
        HmacSha256 {
            inner: Sha256::from_midstate(ks.inner_start),
            outer_start: ks.outer_start,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, msg: &[u8]) {
        self.inner.update(msg);
    }

    /// Produce the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer_start);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time comparison of two byte strings.
///
/// Used wherever MAC tags or signatures are checked, so that the simulated
/// verifiers model the behaviour real hardware must have (no early-exit
/// timing channel).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4231 test cases 1-4, 6, 7.
    #[test]
    fn rfc4231_case1() {
        let key = vec![0x0b; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = vec![0xaa; 20];
        let msg = vec![0xdd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key = unhex("0102030405060708090a0b0c0d0e0f10111213141516171819");
        let msg = vec![0xcd; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &msg)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = vec![0xaa; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case7_long_key_long_msg() {
        let key = vec![0xaa; 131];
        let msg: &[u8] = b"This is a test using a larger than block-size key and a \
larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex(&hmac_sha256(&key, msg)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"some-key";
        let msg = b"a message split across several update calls";
        let mut mac = HmacSha256::new(key);
        for chunk in msg.chunks(5) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac_sha256(key, msg));
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"abcd"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn key_schedule_matches_fresh_mac() {
        // Schedules over short, block-size, and over-block keys must
        // produce identical tags to the from-scratch path.
        for key_len in [0usize, 8, 63, 64, 65, 131] {
            let key = vec![0x42u8; key_len];
            let ks = HmacKeySchedule::new(&key);
            for msg_len in [0usize, 5, 32, 64, 200] {
                let msg = vec![0x17u8; msg_len];
                assert_eq!(
                    ks.mac(&msg),
                    hmac_sha256(&key, &msg),
                    "key {key_len} msg {msg_len}"
                );
            }
        }
    }

    #[test]
    fn key_schedule_rfc4231_case2() {
        let ks = HmacKeySchedule::new(b"Jefe");
        assert_eq!(
            hex(&ks.mac(b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn distinct_keys_distinct_tags() {
        let tag1 = hmac_sha256(b"key1", b"msg");
        let tag2 = hmac_sha256(b"key2", b"msg");
        assert_ne!(tag1, tag2);
    }

    #[test]
    fn mac_many_matches_scalar() {
        let ks = HmacKeySchedule::new(b"batch-key");
        for msg_len in [0usize, 16, 32, 55, 56, 64, 200] {
            let msgs_owned: Vec<Vec<u8>> =
                (0..8u8).map(|l| vec![l.wrapping_add(1); msg_len]).collect();
            let msgs: [&[u8]; 8] = std::array::from_fn(|l| msgs_owned[l].as_slice());
            let tags = ks.mac_many(msgs);
            for l in 0..8 {
                assert_eq!(tags[l], ks.mac(msgs[l]), "len {msg_len} lane {l}");
            }
        }
    }
}
