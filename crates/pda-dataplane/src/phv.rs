//! Packet Header Vector (PHV) — the per-packet working state that flows
//! through a PISA pipeline (Bosshart et al., "Forwarding Metamorphosis").
//!
//! The parser extracts header fields out of raw packet bytes into the
//! PHV; match-action stages read and write PHV slots; the deparser
//! serializes valid headers back out. Fields are addressed as
//! `"header.field"` strings resolved against [`crate::headers`]
//! definitions.
//!
//! As in RMT hardware, where the compiler fixes each header field's PHV
//! container, every field of the standard header library and every
//! [`meta`] intrinsic owns one `u64` container at a position fixed at
//! compile time. One bitmask records which containers were written,
//! another which library headers are valid. Every other name — user
//! metadata such as `meta.c2_hit`, or a header outside the library —
//! lives in an overflow map keyed by name. A name resolves to its
//! container with one probe of a table built from the layout at compile
//! time, confirmed by one name comparison; reading or writing a library
//! field never allocates, and the parser and deparser move a library
//! header by container position. This module is the only one that knows
//! the layout.

use crate::headers::{self, HeaderDef};
use crate::tables::MIX;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Standard intrinsic metadata fields (not parsed from the wire).
pub mod meta {
    /// Ingress port the packet arrived on.
    pub const INGRESS_PORT: &str = "meta.ingress_port";
    /// Egress port chosen by the pipeline (`DROP` when dropped).
    pub const EGRESS_PORT: &str = "meta.egress_port";
    /// Sentinel egress value meaning "drop".
    pub const DROP: u64 = u64::MAX;
    /// Scratch hash value (for ECMP / load balancing).
    pub const HASH: &str = "meta.hash";
}

/// The standard header library, in container order.
const LIBRARY: [HeaderDef; 6] = [
    headers::ethernet(),
    headers::ipv4(),
    headers::tcp(),
    headers::udp(),
    headers::pda_options(),
    headers::payload_sig(),
];

/// The intrinsic metadata fields, whose containers follow the library's.
const INTRINSICS: [&str; 3] = [meta::INGRESS_PORT, meta::EGRESS_PORT, meta::HASH];

/// Container of each library header's first field.
const BASES: [usize; LIBRARY.len()] = {
    let mut bases = [0; LIBRARY.len()];
    let mut h = 1;
    while h < LIBRARY.len() {
        bases[h] = bases[h - 1] + LIBRARY[h - 1].fields.len();
        h += 1;
    }
    bases
};

/// Containers holding library fields; the intrinsics come after them.
const LIBRARY_FIELDS: usize = BASES[LIBRARY.len() - 1] + LIBRARY[LIBRARY.len() - 1].fields.len();

/// All fixed containers.
const CONTAINERS: usize = LIBRARY_FIELDS + INTRINSICS.len();

const _: () = assert!(
    CONTAINERS <= u64::BITS as usize,
    "every container needs a bit of the `written` mask"
);

/// The longest `"header.field"` name of a library container.
const NAME_MAX: usize = 24;

/// The qualified name of each library container, NUL-padded, with its
/// length.
const QUALIFIED: [([u8; NAME_MAX], usize); LIBRARY_FIELDS] = {
    let mut out = [([0; NAME_MAX], 0); LIBRARY_FIELDS];
    let mut h = 0;
    while h < LIBRARY.len() {
        let mut f = 0;
        while f < LIBRARY[h].fields.len() {
            let (buf, len) = &mut out[BASES[h] + f];
            *len = append(buf, 0, LIBRARY[h].name.as_bytes());
            *len = append(buf, *len, b".");
            *len = append(buf, *len, LIBRARY[h].fields[f].name.as_bytes());
            f += 1;
        }
        h += 1;
    }
    out
};

/// Copy `bytes` into `buf` at `at`; returns the end position.
const fn append(buf: &mut [u8; NAME_MAX], at: usize, bytes: &[u8]) -> usize {
    assert!(at + bytes.len() <= NAME_MAX, "raise NAME_MAX");
    let mut i = 0;
    while i < bytes.len() {
        buf[at + i] = bytes[i];
        i += 1;
    }
    at + bytes.len()
}

/// The qualified field name of each container, in container order.
static NAMES: [&str; CONTAINERS] = {
    let mut names = [""; CONTAINERS];
    let mut c = 0;
    while c < LIBRARY_FIELDS {
        let (buf, len) = &QUALIFIED[c];
        names[c] = match std::str::from_utf8(buf.split_at(*len).0) {
            Ok(name) => name,
            Err(_) => panic!("header and field names are UTF-8"),
        };
        c += 1;
    }
    while c < CONTAINERS {
        names[c] = INTRINSICS[c - LIBRARY_FIELDS];
        c += 1;
    }
    names
};

/// Slots of [`NAME_TABLE`], a power of two: with under one in seven
/// taken, a name outside the layout usually finds its slot empty.
const SLOT_BITS: u32 = 8;
const SLOTS: usize = 1 << SLOT_BITS;

/// A free slot of [`NAME_TABLE`]; past every container.
const EMPTY: u8 = u8::MAX;

const _: () = assert!(CONTAINERS < EMPTY as usize, "a container index fits a slot");

/// The slot of a field name under `seed`: the name's length and its
/// first and last eight bytes (a shorter name is read once,
/// zero-padded), mixed by two multiplications, whose top bits index the
/// table.
const fn slot(name: &[u8], seed: u64) -> usize {
    let (first, last) = match (name.first_chunk::<8>(), name.last_chunk::<8>()) {
        (Some(first), Some(last)) => (u64::from_le_bytes(*first), u64::from_le_bytes(*last)),
        _ => {
            let mut word = [0; 8];
            word.split_at_mut(name.len()).0.copy_from_slice(name);
            (u64::from_le_bytes(word), 0)
        }
    };
    let h = ((first ^ seed).wrapping_mul(MIX) ^ last ^ name.len() as u64).wrapping_mul(MIX);
    (h >> (u64::BITS - SLOT_BITS)) as usize
}

/// Whether every name in the layout has a slot of its own under `seed`.
const fn separates(seed: u64) -> bool {
    let mut taken = [false; SLOTS];
    let mut c = 0;
    while c < CONTAINERS {
        let s = slot(NAMES[c].as_bytes(), seed);
        if taken[s] {
            return false;
        }
        taken[s] = true;
        c += 1;
    }
    true
}

/// The first seed under which the layout's names take distinct slots,
/// found at compile time, so that a name resolves with one probe.
const SEED: u64 = {
    let mut seed = 0;
    while !separates(seed) {
        seed += 1;
        assert!(
            seed < 1 << 12,
            "no seed separates the names: raise SLOT_BITS"
        );
    }
    seed
};

/// The container of each name in the layout, at the name's slot.
static NAME_TABLE: [u8; SLOTS] = {
    let mut table = [EMPTY; SLOTS];
    let mut c = 0;
    while c < CONTAINERS {
        table[slot(NAMES[c].as_bytes(), SEED)] = c as u8;
        c += 1;
    }
    table
};

/// The container holding field `name`, or `None` for a name outside the
/// layout: one probe of [`NAME_TABLE`], confirmed by comparing the
/// container's name.
fn container(name: &str) -> Option<usize> {
    let c = usize::from(NAME_TABLE[slot(name.as_bytes(), SEED)]);
    (*NAMES.get(c)? == name).then_some(c)
}

/// Position of the library header called `name`.
fn library_header(name: &str) -> Option<usize> {
    LIBRARY.iter().position(|h| h.name == name)
}

/// Position of `hdr` in the library when it is the library's own
/// definition of its name, recognized by the address of its field
/// table (each constructor in [`crate::headers`] returns one `static`)
/// and then by name. Any other header, even one equal in value, goes
/// field by field through [`Phv::set`] and [`Phv::get`], which store the
/// same values.
fn library_index(hdr: &HeaderDef) -> Option<usize> {
    let h = LIBRARY
        .iter()
        .position(|l| std::ptr::eq(l.fields, hdr.fields))?;
    (LIBRARY[h].name == hdr.name).then_some(h)
}

/// The packet header vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Phv {
    /// One value per library field and intrinsic, in layout order; a
    /// container never written holds 0.
    containers: [u64; CONTAINERS],
    /// Bit `c` set ⟺ container `c` has been written.
    written: u64,
    /// Bit `h` set ⟺ library header `h` is valid.
    valid: u64,
    /// Fields outside the layout, `"hdr.field"` → value.
    overflow: BTreeMap<String, u64>,
    /// Valid headers outside the library.
    overflow_valid: BTreeSet<String>,
}

impl Default for Phv {
    fn default() -> Phv {
        Phv {
            containers: [0; CONTAINERS],
            written: 0,
            valid: 0,
            overflow: BTreeMap::new(),
            overflow_valid: BTreeSet::new(),
        }
    }
}

impl Phv {
    /// Fresh, empty PHV.
    pub fn new() -> Phv {
        Phv::default()
    }

    /// Read a field; invalid/unset fields read as 0 (P4 semantics for
    /// reading an invalid header field are undefined — we pin them to 0
    /// for determinism).
    pub fn get(&self, field: &str) -> u64 {
        match container(field) {
            Some(c) => self.containers[c],
            None => self.overflow.get(field).copied().unwrap_or(0),
        }
    }

    /// Write a field.
    pub fn set(&mut self, field: &str, value: u64) {
        match container(field) {
            Some(c) => self.write(c, value),
            None => match self.overflow.get_mut(field) {
                Some(slot) => *slot = value,
                None => {
                    self.overflow.insert(field.to_string(), value);
                }
            },
        }
    }

    /// Write container `c` and mark it written.
    fn write(&mut self, c: usize, value: u64) {
        self.containers[c] = value;
        self.written |= 1 << c;
    }

    /// Mark a header valid (after extraction or push).
    pub fn set_valid(&mut self, header: &str, valid: bool) {
        match library_header(header) {
            Some(h) if valid => self.valid |= 1 << h,
            Some(h) => self.valid &= !(1 << h),
            None if valid => {
                if !self.overflow_valid.contains(header) {
                    self.overflow_valid.insert(header.to_string());
                }
            }
            None => {
                self.overflow_valid.remove(header);
            }
        }
    }

    /// Is the header valid?
    pub fn is_valid(&self, header: &str) -> bool {
        match library_header(header) {
            Some(h) => self.valid & (1 << h) != 0,
            None => self.overflow_valid.contains(header),
        }
    }

    /// All valid header names, in name order.
    pub fn valid_headers(&self) -> Vec<&str> {
        let mut names: Vec<&str> = (0..LIBRARY.len())
            .filter(|h| self.valid & (1 << h) != 0)
            .map(|h| LIBRARY[h].name)
            .chain(self.overflow_valid.iter().map(String::as_str))
            .collect();
        names.sort_unstable();
        names
    }

    /// Iterate over all set fields, in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut fields: Vec<(&str, u64)> = (0..CONTAINERS)
            .filter(|c| self.written & (1 << c) != 0)
            .map(|c| (NAMES[c], self.containers[c]))
            .chain(self.overflow.iter().map(|(k, v)| (k.as_str(), *v)))
            .collect();
        fields.sort_unstable_by_key(|&(name, _)| name);
        fields.into_iter()
    }

    /// The parser's extraction: read `hdr`'s fields big-endian out of
    /// `raw` (at least `hdr.len()` bytes) and mark `hdr` valid. A
    /// library header is written by container position.
    pub(crate) fn extract(&mut self, hdr: &HeaderDef, raw: &[u8]) {
        let mut at = 0;
        let values = hdr.fields.iter().map(|fd| {
            let v = raw[at..at + fd.bytes]
                .iter()
                .fold(0, |v, b| (v << 8) | u64::from(*b));
            at += fd.bytes;
            v
        });
        match library_index(hdr) {
            Some(h) => {
                for (c, v) in (BASES[h]..).zip(values) {
                    self.write(c, v);
                }
                self.valid |= 1 << h;
            }
            None => {
                for (fd, v) in hdr.fields.iter().zip(values) {
                    self.set(&hdr.slot(fd.name), v);
                }
                self.set_valid(hdr.name, true);
            }
        }
    }

    /// The deparser's emission: append `hdr`'s fields to `out`,
    /// big-endian at their declared widths, when `hdr` is valid; an
    /// invalid (popped) header emits nothing. A library header is read
    /// by container position.
    pub(crate) fn emit(&self, hdr: &HeaderDef, out: &mut Vec<u8>) {
        match library_index(hdr) {
            Some(h) if self.valid & (1 << h) != 0 => {
                for (fd, v) in hdr.fields.iter().zip(&self.containers[BASES[h]..]) {
                    out.extend_from_slice(&v.to_be_bytes()[8 - fd.bytes..]);
                }
            }
            Some(_) => {}
            None if self.is_valid(hdr.name) => {
                for fd in hdr.fields {
                    let v = self.get(&hdr.slot(fd.name));
                    out.extend_from_slice(&v.to_be_bytes()[8 - fd.bytes..]);
                }
            }
            None => {}
        }
    }
}

impl fmt::Display for Phv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PHV{{")?;
        for (i, (k, v)) in self.fields().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unset_fields_read_zero() {
        let phv = Phv::new();
        assert_eq!(phv.get("ipv4.ttl"), 0);
    }

    #[test]
    fn set_get_round_trip() {
        let mut phv = Phv::new();
        phv.set("ipv4.ttl", 64);
        assert_eq!(phv.get("ipv4.ttl"), 64);
        phv.set("ipv4.ttl", 63);
        assert_eq!(phv.get("ipv4.ttl"), 63);
    }

    #[test]
    fn validity_tracking() {
        let mut phv = Phv::new();
        assert!(!phv.is_valid("ipv4"));
        phv.set_valid("ipv4", true);
        phv.set_valid("tcp", true);
        phv.set_valid("udp", false);
        assert!(phv.is_valid("ipv4"));
        assert_eq!(phv.valid_headers(), vec!["ipv4", "tcp"]);
    }

    #[test]
    fn display_lists_fields() {
        let mut phv = Phv::new();
        phv.set("eth.src", 1);
        phv.set("eth.dst", 2);
        let s = phv.to_string();
        assert!(s.contains("eth.src=1") && s.contains("eth.dst=2"), "{s}");
    }

    /// The resolver the name table replaced, kept as its oracle: the
    /// header by name, then the field by name, else an intrinsic.
    fn linear_container(name: &str) -> Option<usize> {
        let (header, field) = name.split_once('.')?;
        match library_header(header) {
            Some(h) => LIBRARY[h]
                .fields
                .iter()
                .position(|f| f.name == field)
                .map(|f| BASES[h] + f),
            None => INTRINSICS
                .iter()
                .position(|m| *m == name)
                .map(|i| LIBRARY_FIELDS + i),
        }
    }

    /// Every library field and intrinsic resolves to its own container,
    /// whose name is the field's qualified slot name, and the name table
    /// holds each container once, at its name's slot.
    #[test]
    fn layout_gives_each_field_its_own_named_container() {
        let mut seen = BTreeSet::new();
        for hdr in LIBRARY {
            for fd in hdr.fields {
                let slot = hdr.slot(fd.name);
                let c = container(&slot).expect("library field has a container");
                assert_eq!(NAMES[c], slot);
                assert!(seen.insert(c), "{slot} shares container {c}");
            }
        }
        for name in INTRINSICS {
            let c = container(name).expect("intrinsic has a container");
            assert_eq!(NAMES[c], name);
            assert!(seen.insert(c));
        }
        assert_eq!(seen.len(), CONTAINERS);
        assert_eq!(
            NAME_TABLE.iter().filter(|&&c| c != EMPTY).count(),
            CONTAINERS
        );
        for (c, name) in NAMES.iter().enumerate() {
            assert_eq!(usize::from(NAME_TABLE[slot(name.as_bytes(), SEED)]), c);
        }
        for near_miss in ["ipv4", "ipv4.", ".dst", "ipv4.dst.x", "", "meta.c2_hit"] {
            assert_eq!(container(near_miss), None, "{near_miss:?}");
            assert_eq!(linear_container(near_miss), None, "{near_miss:?}");
        }
    }

    /// A name drawn near the layout's: a layout name, a prefix or suffix
    /// of one, a header joined to another header's field, one with a
    /// stray dot or a multi-byte character spliced in, the empty string,
    /// or a long string over name characters.
    fn near_names() -> impl Strategy<Value = String> {
        let name = || (0..CONTAINERS).prop_map(|c| NAMES[c]);
        prop_oneof![
            name().prop_map(str::to_string),
            (name(), 0..NAME_MAX).prop_map(|(n, k)| n[..k.min(n.len())].to_string()),
            (name(), 0..NAME_MAX).prop_map(|(n, k)| n[k.min(n.len())..].to_string()),
            (0..LIBRARY.len(), name()).prop_map(|(h, n)| {
                let field = n.split_once('.').map_or(n, |(_, f)| f);
                format!("{}.{field}", LIBRARY[h].name)
            }),
            (
                name(),
                0..NAME_MAX,
                prop_oneof![Just("."), Just("é"), Just("漢")]
            )
                .prop_map(|(n, k, splice)| {
                    let k = k.min(n.len());
                    format!("{}{splice}{}", &n[..k], &n[k..])
                }),
            Just(String::new()),
            "[a-z_.é]{0,80}",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        /// The name table resolves every name as the linear resolver does.
        #[test]
        fn name_table_agrees_with_the_linear_resolver(name in near_names()) {
            prop_assert_eq!(container(&name), linear_container(&name), "{:?}", name);
        }
    }

    /// The standard parser's headers are the library's own field tables,
    /// so extraction and emission recognize them by address.
    #[test]
    fn standard_parser_extracts_the_library_tables() {
        for state in crate::parser::standard_parser().states {
            let hdr = state.extract.expect("every standard state extracts");
            let h = library_header(hdr.name).expect("a library header");
            assert!(std::ptr::eq(LIBRARY[h].fields, hdr.fields), "{}", hdr.name);
        }
    }

    /// A library name over a field table of its own is not recognized by
    /// address, so it goes by name and lands in the same containers.
    #[test]
    fn copied_library_table_extracts_by_name() {
        const UDP: HeaderDef = HeaderDef {
            name: "udp",
            fields: &[
                crate::headers::FieldDef {
                    name: "sport",
                    bytes: 2,
                },
                crate::headers::FieldDef {
                    name: "dport",
                    bytes: 2,
                },
                crate::headers::FieldDef {
                    name: "len",
                    bytes: 2,
                },
                crate::headers::FieldDef {
                    name: "checksum",
                    bytes: 2,
                },
            ],
        };
        assert_eq!(UDP, headers::udp());
        assert_eq!(library_index(&UDP), None);
        let raw = [0x03, 0xe8, 0x07, 0xd0, 0x00, 0x08, 0xab, 0xcd];
        let (mut by_name, mut by_address) = (Phv::new(), Phv::new());
        by_name.extract(&UDP, &raw);
        by_address.extract(&headers::udp(), &raw);
        assert_eq!(by_name, by_address);
        assert_eq!(by_name.get("udp.sport"), 1000);
        let mut out = Vec::new();
        by_name.emit(&UDP, &mut out);
        assert_eq!(out, raw);
    }

    /// A field written with 0 is listed; one never written is not.
    #[test]
    fn zero_written_field_is_distinct_from_unset() {
        let mut phv = Phv::new();
        phv.set("udp.sport", 0);
        phv.set("meta.c2_hit", 0);
        let fields: Vec<_> = phv.fields().collect();
        assert_eq!(fields, vec![("meta.c2_hit", 0), ("udp.sport", 0)]);
        assert_ne!(phv, Phv::new());
    }

    /// A header outside the library keeps its validity by name, and its
    /// extraction lands in the overflow map.
    #[test]
    fn non_library_header_round_trips_through_the_overflow() {
        const VLAN: HeaderDef = HeaderDef {
            name: "vlan",
            fields: &[
                crate::headers::FieldDef {
                    name: "tci",
                    bytes: 2,
                },
                crate::headers::FieldDef {
                    name: "ethertype",
                    bytes: 2,
                },
            ],
        };
        let mut phv = Phv::new();
        phv.extract(&VLAN, &[0x00, 0x2a, 0x08, 0x00]);
        assert!(phv.is_valid("vlan"));
        assert_eq!(phv.get("vlan.tci"), 42);
        assert_eq!(phv.get("vlan.ethertype"), 0x0800);
        let mut out = Vec::new();
        phv.emit(&VLAN, &mut out);
        assert_eq!(out, [0x00, 0x2a, 0x08, 0x00]);
        phv.set_valid("vlan", false);
        assert!(phv.valid_headers().is_empty());
    }
}
