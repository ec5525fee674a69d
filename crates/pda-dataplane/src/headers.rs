//! Header type definitions and the standard header library.
//!
//! A header type is an ordered list of fixed-width fields (whole bytes —
//! sub-byte fields of the real protocols are merged into byte-aligned
//! spans, documented per header). The parser and deparser work directly
//! from these definitions, so adding a protocol is purely declarative.
//!
//! The library headers are `const` data: each constructor is a `const
//! fn` returning its name and a reference to one `static` field table,
//! so a [`HeaderDef`] is a `Copy` pair of references, and
//! [`crate::phv`] derives its fixed container layout from these same
//! definitions at compile time (and recognizes a library header by the
//! address of its table).

/// A field: name and width in bytes (1..=8).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldDef {
    /// Field name (unqualified; PHV slots are `"header.field"`).
    pub name: &'static str,
    /// Width in bytes.
    pub bytes: usize,
}

/// A header type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HeaderDef {
    /// Header instance name (`eth`, `ipv4`, `tcp`, …).
    pub name: &'static str,
    /// Ordered fields.
    pub fields: &'static [FieldDef],
}

impl HeaderDef {
    /// Total header length in bytes.
    pub fn len(&self) -> usize {
        self.fields.iter().map(|f| f.bytes).sum()
    }

    /// Headers always have at least one field.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Qualified PHV slot name for a field.
    pub fn slot(&self, field: &str) -> String {
        format!("{}.{field}", self.name)
    }
}

const fn f(name: &'static str, bytes: usize) -> FieldDef {
    FieldDef { name, bytes }
}

/// Ethernet II: dst(6) src(6) ethertype(2). 14 bytes.
pub const fn ethernet() -> HeaderDef {
    static FIELDS: [FieldDef; 3] = [f("dst", 6), f("src", 6), f("ethertype", 2)];
    HeaderDef {
        name: "eth",
        fields: &FIELDS,
    }
}

/// IPv4 without options, 20 bytes. `ver_ihl` packs version+IHL,
/// `flags_frag` packs flags+fragment offset (byte-aligned merges of the
/// real sub-byte fields).
pub const fn ipv4() -> HeaderDef {
    static FIELDS: [FieldDef; 10] = [
        f("ver_ihl", 1),
        f("dscp", 1),
        f("total_len", 2),
        f("id", 2),
        f("flags_frag", 2),
        f("ttl", 1),
        f("proto", 1),
        f("checksum", 2),
        f("src", 4),
        f("dst", 4),
    ];
    HeaderDef {
        name: "ipv4",
        fields: &FIELDS,
    }
}

/// UDP, 8 bytes.
pub const fn udp() -> HeaderDef {
    static FIELDS: [FieldDef; 4] = [f("sport", 2), f("dport", 2), f("len", 2), f("checksum", 2)];
    HeaderDef {
        name: "udp",
        fields: &FIELDS,
    }
}

/// TCP without options, 20 bytes. `off_flags` packs data offset +
/// reserved + flags.
pub const fn tcp() -> HeaderDef {
    static FIELDS: [FieldDef; 8] = [
        f("sport", 2),
        f("dport", 2),
        f("seq", 4),
        f("ack", 4),
        f("off_flags", 2),
        f("window", 2),
        f("checksum", 2),
        f("urgent", 2),
    ];
    HeaderDef {
        name: "tcp",
        fields: &FIELDS,
    }
}

/// The PDA attestation options header (§5.2) as seen by the dataplane:
/// fixed preamble only; the variable policy body is opaque payload from
/// the pipeline's perspective. 16 bytes.
///
/// `magic(2) ver(1) flags(1) nonce(8) policy_len(2) ev_len(2)`.
pub const fn pda_options() -> HeaderDef {
    static FIELDS: [FieldDef; 6] = [
        f("magic", 2),
        f("ver", 1),
        f("flags", 1),
        f("nonce", 8),
        f("policy_len", 2),
        f("ev_len", 2),
    ];
    HeaderDef {
        name: "pda",
        fields: &FIELDS,
    }
}

/// A "signature window" pseudo-header: the first 8 payload bytes,
/// extracted so match-action stages can pattern-match application bytes
/// (how a PISA switch does lightweight payload inspection, cf. UC4's
/// malware-C2 fingerprinting).
pub const fn payload_sig() -> HeaderDef {
    static FIELDS: [FieldDef; 1] = [f("window", 8)];
    HeaderDef {
        name: "sig",
        fields: &FIELDS,
    }
}

/// Ethertype and protocol constants used across programs.
pub mod consts {
    /// Ethertype for IPv4.
    pub const ETHERTYPE_IPV4: u64 = 0x0800;
    /// IPv4 protocol number for TCP.
    pub const PROTO_TCP: u64 = 6;
    /// IPv4 protocol number for UDP.
    pub const PROTO_UDP: u64 = 17;
    /// IPv4 protocol number claimed by the PDA options header
    /// (experimental range).
    pub const PROTO_PDA: u64 = 254;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_lengths_match_protocols() {
        assert_eq!(ethernet().len(), 14);
        assert_eq!(ipv4().len(), 20);
        assert_eq!(udp().len(), 8);
        assert_eq!(tcp().len(), 20);
        assert_eq!(pda_options().len(), 16);
        assert_eq!(payload_sig().len(), 8);
    }

    #[test]
    fn slot_names() {
        assert_eq!(ipv4().slot("ttl"), "ipv4.ttl");
    }

    #[test]
    fn no_field_wider_than_u64() {
        for h in [
            ethernet(),
            ipv4(),
            udp(),
            tcp(),
            pda_options(),
            payload_sig(),
        ] {
            for fd in h.fields {
                assert!(fd.bytes >= 1 && fd.bytes <= 8, "{}.{}", h.name, fd.name);
            }
            assert!(!h.is_empty());
        }
    }
}
