//! 32-byte digest newtype used throughout the attestation stack.

use crate::sha256::Sha256;
use std::fmt;

const HEX: &[u8; 16] = b"0123456789abcdef";

/// Hex-encode via table lookup. The obvious per-byte
/// `format!("{b:02x}")` routes every byte through the `fmt` machinery
/// and allocates a fresh `String` each time; this builds one exact-size
/// buffer with two table lookups per byte. Public because callers
/// outside this crate (evidence submission payloads in `pda-svc`) hex
/// multi-megabyte buffers through it.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = Vec::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[usize::from(b >> 4)]);
        out.push(HEX[usize::from(b & 0x0f)]);
    }
    // The table is pure ASCII, so the bytes are valid UTF-8.
    String::from_utf8(out).expect("hex output is ASCII")
}

/// Decode hex (either case) into bytes; `None` on odd length or any
/// byte that is not a hex digit, including a sign or one byte of a
/// multi-byte character. Works on bytes, so no input can panic it.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    let digit = |b: u8| char::from(b).to_digit(16);
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    s.chunks_exact(2)
        .map(|pair| Some(((digit(pair[0])? << 4) | digit(pair[1])?) as u8))
        .collect()
}

/// A 256-bit digest value.
///
/// Wraps `[u8; 32]` to give hashes a distinct type from raw byte strings,
/// with hex formatting, parsing, and chaining helpers. All evidence
/// hash-chains and program measurements are expressed in terms of this
/// type.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as the root of fresh hash chains.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Hash arbitrary bytes.
    pub fn of(data: &[u8]) -> Digest {
        Digest(Sha256::digest(data))
    }

    /// Hash the concatenation of several parts.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        Digest(Sha256::digest_parts(parts))
    }

    /// Chain this digest with new data: `H(self || data)`.
    ///
    /// This is the primitive behind tamper-evident evidence chains — each
    /// hop's evidence folds the previous accumulated digest so removal or
    /// reordering of a link changes every later value.
    pub fn chain(&self, data: &[u8]) -> Digest {
        Digest(Sha256::digest_parts(&[&self.0, data]))
    }

    /// Combine two digests: `H(left || right)` (Merkle node rule).
    pub fn combine(left: &Digest, right: &Digest) -> Digest {
        Digest(Sha256::digest_parts(&[&left.0, &right.0]))
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex rendering.
    pub fn to_hex(&self) -> String {
        hex_encode(&self.0)
    }

    /// Parse a 64-character hex string.
    pub fn from_hex(s: &str) -> Option<Digest> {
        hex_decode(s)?.try_into().ok().map(Digest)
    }

    /// Short prefix for logs and pseudonyms (first 8 hex chars).
    pub fn short(&self) -> String {
        hex_encode(&self.0[..4])
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let d = Digest::of(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"0".repeat(63)), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        // 64 bytes, but `é` is two of them: no digit pair may split it.
        let split = format!("a{}", "é".repeat(31) + "b");
        assert_eq!(split.len(), 64);
        assert_eq!(Digest::from_hex(&split), None);
        assert_eq!(Digest::from_hex(&format!("é{}", "0".repeat(62))), None);
    }

    #[test]
    fn hex_decode_takes_digits_only() {
        assert_eq!(hex_decode("00fFa9"), Some(vec![0x00, 0xff, 0xa9]));
        assert_eq!(hex_decode(""), Some(vec![]));
        assert_eq!(hex_decode("abc"), None, "odd length");
        assert_eq!(hex_decode("+f"), None, "a sign is not a digit");
        assert_eq!(hex_decode("aéb"), None);
    }

    #[test]
    fn chain_is_order_sensitive() {
        let a = Digest::ZERO.chain(b"a").chain(b"b");
        let b = Digest::ZERO.chain(b"b").chain(b"a");
        assert_ne!(a, b);
    }

    #[test]
    fn combine_is_order_sensitive() {
        let x = Digest::of(b"x");
        let y = Digest::of(b"y");
        assert_ne!(Digest::combine(&x, &y), Digest::combine(&y, &x));
    }

    #[test]
    fn hex_encoding_matches_format_machinery() {
        // Pin the table encoder against the std formatter it replaced,
        // across every byte value.
        let mut all = [0u8; 32];
        for (i, b) in all.iter_mut().enumerate() {
            *b = (i * 8 + 7) as u8;
        }
        for d in [Digest(all), Digest([0u8; 32]), Digest([0xffu8; 32])] {
            let expected: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(d.to_hex(), expected);
            assert_eq!(d.short(), expected[..8]);
        }
    }

    #[test]
    fn display_matches_to_hex() {
        let d = Digest::of(b"display");
        assert_eq!(format!("{d}"), d.to_hex());
    }
}
