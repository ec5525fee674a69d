//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! This is the measurement/hash primitive for the whole attestation stack:
//! program digests, evidence hash-chains (Copland's `#` operator), HMAC,
//! and the hash-based signature schemes are all built on it.
//!
//! The implementation is a straightforward, allocation-free rendition of
//! the FIPS 180-4 specification and is validated against the NIST
//! short-message test vectors in the unit tests below.

/// Initial hash values: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use pda_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let d = h.finalize();
/// assert_eq!(
///     hex(&d),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(b: &[u8]) -> String {
///     b.iter().map(|x| format!("{x:02x}")).collect()
/// }
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (used for the length suffix in padding).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

/// Compression state captured at a 64-byte block boundary.
///
/// A midstate is the complete hash state after absorbing some
/// block-aligned prefix. Resuming from it with [`Sha256::from_midstate`]
/// skips re-hashing that prefix entirely — the basis for precomputed
/// HMAC key schedules ([`crate::hmac::HmacKeySchedule`]), where the
/// fixed ipad/opad blocks are compressed once per key instead of once
/// per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Midstate {
    state: [u32; 8],
    /// Bytes absorbed to reach this state; always a multiple of 64.
    len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;

        // Fill a partial block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }

        // Whole blocks straight from the input.
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }

        // Stash the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding, written straight into the block buffer: 0x80, zeros
        // up to byte 56 of a block (spilling into a second block when the
        // tail leaves no room), then the 64-bit big-endian message length.
        let tail = self.buf_len;
        self.buf[tail] = 0x80;
        self.buf[tail + 1..].fill(0);
        if tail >= 56 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Export the compression state, valid only at a block boundary
    /// (no buffered partial block). Returns `None` mid-block, since the
    /// buffered bytes are not part of the compressed state.
    pub fn midstate(&self) -> Option<Midstate> {
        if self.buf_len == 0 {
            Some(Midstate {
                state: self.state,
                len: self.len,
            })
        } else {
            None
        }
    }

    /// Resume hashing from a previously exported [`Midstate`], as if the
    /// original block-aligned prefix had just been absorbed.
    pub fn from_midstate(m: Midstate) -> Sha256 {
        Sha256 {
            state: m.state,
            len: m.len,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Hash the concatenation of several byte slices without allocating.
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; 32] {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }

    /// Number of independent messages the wide digest paths
    /// ([`digest_many`], [`digest_many_from`]) process per compression
    /// pass. Eight 32-bit lanes fill one 256-bit vector register, which
    /// is what the structure-of-arrays layout below is shaped for.
    pub const LANES: usize = 8;

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for t in 0..64 {
            let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = big_s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

// ---------------------------------------------------------------------
// Multi-message block layout: L independent messages per compression
// pass. The hash-based signature schemes hash hundreds of *independent*
// short messages per operation (512 preimages per Lamport key, one leaf
// per batch entry), where the scalar schedule leaves 7/8 of a vector
// register idle. The structure-of-arrays compressor below carries one
// message per 32-bit lane — every round operation is a straight-line
// elementwise loop over `[u32; L]`, which the autovectorizer lowers to
// vector code without any explicit SIMD (the workspace forbids
// `unsafe`). Digests are bit-identical to [`Sha256::digest`].
// ---------------------------------------------------------------------

/// One compression pass over `L` independent 64-byte blocks, carried in
/// structure-of-arrays form: `state[word][lane]`.
fn compress_multi<const L: usize>(state: &mut [[u32; L]; 8], blocks: &[&[u8]; L]) {
    let mut w = [[0u32; L]; 64];
    for t in 0..16 {
        for l in 0..L {
            let b = &blocks[l][t * 4..t * 4 + 4];
            w[t][l] = u32::from_be_bytes([b[0], b[1], b[2], b[3]]);
        }
    }
    for t in 16..64 {
        let (prev, cur) = w.split_at_mut(t);
        for (l, out) in cur[0].iter_mut().enumerate() {
            let x = prev[t - 15][l];
            let y = prev[t - 2][l];
            let s0 = x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3);
            let s1 = y.rotate_right(17) ^ y.rotate_right(19) ^ (y >> 10);
            *out = prev[t - 16][l]
                .wrapping_add(s0)
                .wrapping_add(prev[t - 7][l])
                .wrapping_add(s1);
        }
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let mut t1 = [0u32; L];
        let mut t2 = [0u32; L];
        for l in 0..L {
            let big_s1 = e[l].rotate_right(6) ^ e[l].rotate_right(11) ^ e[l].rotate_right(25);
            let ch = (e[l] & f[l]) ^ (!e[l] & g[l]);
            t1[l] = h[l]
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t][l]);
            let big_s0 = a[l].rotate_right(2) ^ a[l].rotate_right(13) ^ a[l].rotate_right(22);
            let maj = (a[l] & b[l]) ^ (a[l] & c[l]) ^ (b[l] & c[l]);
            t2[l] = big_s0.wrapping_add(maj);
        }
        h = g;
        g = f;
        f = e;
        for l in 0..L {
            e[l] = d[l].wrapping_add(t1[l]);
        }
        d = c;
        c = b;
        b = a;
        for l in 0..L {
            a[l] = t1[l].wrapping_add(t2[l]);
        }
    }

    let sum = [a, b, c, d, e, f, g, h];
    for (wrd, add) in state.iter_mut().zip(sum) {
        for l in 0..L {
            wrd[l] = wrd[l].wrapping_add(add[l]);
        }
    }
}

/// Hash `L` independent messages in one multi-lane pass.
///
/// Equal-length messages share every compression (the fast path the
/// signature schemes hit: all preimages, images, and Merkle leaves of
/// one operation have one size); mixed lengths fall back to the scalar
/// hasher per lane. Either way each output equals
/// [`Sha256::digest`] of the corresponding input.
pub fn digest_many<const L: usize>(msgs: [&[u8]; L]) -> [[u8; 32]; L] {
    digest_many_from(Midstate { state: H0, len: 0 }, msgs)
}

/// [`digest_many`] resuming every lane from the same block-aligned
/// [`Midstate`] — the multi-lane analogue of [`Sha256::from_midstate`].
/// This is what lets HMAC-heavy callers (Lamport key derivation) batch
/// the per-message compressions while the key-block compressions stay
/// precomputed.
pub fn digest_many_from<const L: usize>(start: Midstate, msgs: [&[u8]; L]) -> [[u8; 32]; L] {
    let mut out = [[0u8; 32]; L];
    if L == 0 {
        return out;
    }
    let n = msgs[0].len();
    if msgs.iter().any(|m| m.len() != n) {
        for (o, m) in out.iter_mut().zip(msgs) {
            let mut h = Sha256::from_midstate(start);
            h.update(m);
            *o = h.finalize();
        }
        return out;
    }

    let mut state = [[0u32; L]; 8];
    for (word, lanes) in state.iter_mut().enumerate() {
        *lanes = [start.state[word]; L];
    }

    // Whole blocks straight from the inputs.
    let full = n / 64;
    for blk in 0..full {
        let blocks: [&[u8]; L] = std::array::from_fn(|l| &msgs[l][blk * 64..blk * 64 + 64]);
        compress_multi(&mut state, &blocks);
    }

    // Padded tail: identical layout in every lane since lengths match.
    let rem = n % 64;
    let tail_blocks = if rem < 56 { 1 } else { 2 };
    let bit_len = (start.len + n as u64).wrapping_mul(8);
    let mut tails = [[0u8; 128]; L];
    for (tail, msg) in tails.iter_mut().zip(msgs) {
        tail[..rem].copy_from_slice(&msg[full * 64..]);
        tail[rem] = 0x80;
        tail[tail_blocks * 64 - 8..tail_blocks * 64].copy_from_slice(&bit_len.to_be_bytes());
    }
    for blk in 0..tail_blocks {
        let blocks: [&[u8]; L] = std::array::from_fn(|l| &tails[l][blk * 64..blk * 64 + 64]);
        compress_multi(&mut state, &blocks);
    }

    for (word, lanes) in state.iter().enumerate() {
        for l in 0..L {
            out[l][word * 4..word * 4 + 4].copy_from_slice(&lanes[l].to_be_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 180-4 / CAVP short-message vectors.
    #[test]
    fn empty_message() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn four_block_message() {
        let m = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex(&Sha256::digest(m)),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let m = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&m)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = (0u8..=255).cycle().take(10_000).collect::<Vec<_>>();
        let oneshot = Sha256::digest(&data);
        // Feed in irregular chunk sizes to exercise buffering.
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        let a = b"hello ";
        let b = b"world";
        assert_eq!(
            Sha256::digest_parts(&[a, b]),
            Sha256::digest(b"hello world")
        );
    }

    #[test]
    fn midstate_resume_matches_straight_hash() {
        let data = (0u8..=255).cycle().take(4096).collect::<Vec<_>>();
        let oneshot = Sha256::digest(&data);
        // Split at every block boundary: export + resume must be lossless.
        for split in (0..=4096).step_by(64) {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            let m = h.midstate().expect("block-aligned prefix has a midstate");
            let mut resumed = Sha256::from_midstate(m);
            resumed.update(&data[split..]);
            assert_eq!(resumed.finalize(), oneshot, "split {split}");
        }
    }

    #[test]
    fn midstate_unavailable_mid_block() {
        let mut h = Sha256::new();
        h.update(b"short");
        assert_eq!(h.midstate(), None);
        h.update(&[0u8; 59]); // pad to exactly one block
        assert!(h.midstate().is_some());
    }

    #[test]
    fn boundary_lengths() {
        // Message lengths around the padding boundary (55/56/57 and 63/64/65)
        // are the classic off-by-one spots for padding bugs. Compare digests
        // for distinctness and stability under incremental feeding.
        for len in [54usize, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
            let m = vec![0xa5u8; len];
            let d1 = Sha256::digest(&m);
            let mut h = Sha256::new();
            for byte in &m {
                h.update(std::slice::from_ref(byte));
            }
            assert_eq!(h.finalize(), d1, "len {len}");
        }
    }

    #[test]
    fn digest_many_matches_scalar_across_lengths() {
        // The same padding-boundary gauntlet, through the multi-lane path.
        for len in [
            0usize, 1, 3, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 200,
        ] {
            let msgs_owned: Vec<Vec<u8>> =
                (0..8u8).map(|l| vec![l.wrapping_mul(37); len]).collect();
            let msgs: [&[u8]; 8] = std::array::from_fn(|l| msgs_owned[l].as_slice());
            let wide = digest_many(msgs);
            for l in 0..8 {
                assert_eq!(wide[l], Sha256::digest(msgs[l]), "len {len} lane {l}");
            }
        }
    }

    #[test]
    fn digest_many_mixed_lengths_fall_back() {
        let msgs_owned: Vec<Vec<u8>> = (0..4usize).map(|l| vec![0x5au8; l * 31]).collect();
        let msgs: [&[u8]; 4] = std::array::from_fn(|l| msgs_owned[l].as_slice());
        let wide = digest_many(msgs);
        for l in 0..4 {
            assert_eq!(wide[l], Sha256::digest(msgs[l]), "lane {l}");
        }
    }

    #[test]
    fn digest_many_from_matches_resumed_scalar() {
        let prefix = vec![0xc3u8; 128]; // block-aligned
        let mut h = Sha256::new();
        h.update(&prefix);
        let mid = h.midstate().expect("aligned");
        for len in [0usize, 16, 32, 55, 56, 64, 100] {
            let msgs_owned: Vec<Vec<u8>> = (0..8u8).map(|l| vec![l ^ 0x41; len]).collect();
            let msgs: [&[u8]; 8] = std::array::from_fn(|l| msgs_owned[l].as_slice());
            let wide = digest_many_from(mid, msgs);
            for l in 0..8 {
                let mut s = Sha256::from_midstate(mid);
                s.update(msgs[l]);
                assert_eq!(wide[l], s.finalize(), "len {len} lane {l}");
            }
        }
    }
}
