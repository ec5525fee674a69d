//! The programmable parser: a finite state machine that walks raw packet
//! bytes, extracts declared headers into the PHV, and branches on field
//! values (the PISA parse graph).

use crate::headers::HeaderDef;
use crate::phv::Phv;
use std::collections::BTreeMap;
use std::fmt;

/// A transition out of a parser state after extraction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Select {
    /// Unconditionally accept (stop parsing; rest is payload).
    Accept,
    /// Branch on a just-extracted field's value; fall back to `default`.
    On {
        /// PHV slot to inspect (e.g. `eth.ethertype`).
        field: String,
        /// value → next state name.
        cases: BTreeMap<u64, String>,
        /// State when no case matches (`None` = accept).
        default: Option<String>,
    },
}

/// One parser state: extract a header, then select the next state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseState {
    /// State name.
    pub name: String,
    /// Header to extract in this state (`None` = extract nothing).
    pub extract: Option<HeaderDef>,
    /// Transition.
    pub select: Select,
}

/// A parse graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParserDef {
    /// Entry state name.
    pub start: String,
    /// All states by name.
    pub states: Vec<ParseState>,
}

/// Parse error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseErr {
    /// Packet shorter than a header being extracted.
    Truncated {
        /// State that was extracting.
        state: String,
    },
    /// Parser referenced an unknown state.
    UnknownState(String),
    /// The FSM exceeded the state-visit budget (cycle guard).
    Looping,
}

impl fmt::Display for ParseErr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseErr::Truncated { state } => write!(f, "packet truncated in state {state}"),
            ParseErr::UnknownState(s) => write!(f, "unknown parser state {s}"),
            ParseErr::Looping => write!(f, "parser exceeded state budget"),
        }
    }
}

impl std::error::Error for ParseErr {}

/// Result of a successful parse.
#[derive(Clone, Debug)]
pub struct Parsed {
    /// Extracted fields and validity.
    pub phv: Phv,
    /// Offset where the unparsed payload begins.
    pub payload_offset: usize,
    /// Extraction order (needed by the deparser to re-emit bytes).
    pub header_order: Vec<HeaderDef>,
}

impl ParserDef {
    /// Run the parser over `bytes`.
    pub fn parse(&self, bytes: &[u8]) -> Result<Parsed, ParseErr> {
        let mut phv = Phv::new();
        let mut offset = 0usize;
        let mut header_order = Vec::new();
        let mut state_name = self.start.as_str();
        // A parse graph is a DAG in any real program; budget visits to
        // defend against misconfigured graphs.
        for _ in 0..64 {
            let state = self
                .states
                .iter()
                .find(|s| s.name == state_name)
                .ok_or_else(|| ParseErr::UnknownState(state_name.to_string()))?;
            if let Some(hdr) = &state.extract {
                let end = offset + hdr.len();
                let Some(raw) = bytes.get(offset..end) else {
                    return Err(ParseErr::Truncated {
                        state: state.name.clone(),
                    });
                };
                phv.extract(hdr, raw);
                offset = end;
                header_order.push(*hdr);
            }
            let next = match &state.select {
                Select::Accept => None,
                Select::On {
                    field,
                    cases,
                    default,
                } => cases.get(&phv.get(field)).or(default.as_ref()),
            };
            match next {
                Some(next) => state_name = next,
                None => {
                    return Ok(Parsed {
                        phv,
                        payload_offset: offset,
                        header_order,
                    })
                }
            }
        }
        Err(ParseErr::Looping)
    }
}

/// Deparser: re-serialize the (possibly modified) PHV over the original
/// packet, preserving the unparsed payload.
pub fn deparse(parsed: &Parsed, original: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(original.len());
    for hdr in &parsed.header_order {
        // An invalidated (popped) header is not re-emitted.
        if parsed.phv.is_valid(hdr.name) {
            parsed.phv.emit(hdr, &mut out);
        }
    }
    out.extend_from_slice(&original[parsed.payload_offset..]);
    out
}

/// The standard parse graph used by the baseline programs:
/// eth → (0x0800) ipv4 → {6: tcp, 17: udp, 254: pda} → sig-window.
pub fn standard_parser() -> ParserDef {
    use crate::headers::*;
    let mut eth_cases = BTreeMap::new();
    eth_cases.insert(consts::ETHERTYPE_IPV4, "ipv4".to_string());
    let mut ip_cases = BTreeMap::new();
    ip_cases.insert(consts::PROTO_TCP, "tcp".to_string());
    ip_cases.insert(consts::PROTO_UDP, "udp".to_string());
    ip_cases.insert(consts::PROTO_PDA, "pda".to_string());
    ParserDef {
        start: "eth".to_string(),
        states: vec![
            ParseState {
                name: "eth".into(),
                extract: Some(ethernet()),
                select: Select::On {
                    field: "eth.ethertype".into(),
                    cases: eth_cases,
                    default: None,
                },
            },
            ParseState {
                name: "ipv4".into(),
                extract: Some(ipv4()),
                select: Select::On {
                    field: "ipv4.proto".into(),
                    cases: ip_cases,
                    default: None,
                },
            },
            ParseState {
                name: "tcp".into(),
                extract: Some(tcp()),
                select: Select::On {
                    field: "tcp.dport".into(),
                    cases: BTreeMap::new(),
                    default: Some("sig".into()),
                },
            },
            ParseState {
                name: "udp".into(),
                extract: Some(udp()),
                select: Select::On {
                    field: "udp.dport".into(),
                    cases: BTreeMap::new(),
                    default: Some("sig".into()),
                },
            },
            ParseState {
                name: "pda".into(),
                extract: Some(pda_options()),
                select: Select::Accept,
            },
            ParseState {
                name: "sig".into(),
                extract: Some(payload_sig()),
                select: Select::Accept,
            },
        ],
    }
}

/// Build a raw test packet: ethernet+ipv4+udp with the given addressing
/// and at least 8 payload bytes (zero-padded).
pub fn build_udp_packet(
    eth_src: u64,
    eth_dst: u64,
    ip_src: u32,
    ip_dst: u32,
    sport: u16,
    dport: u16,
    payload: &[u8],
) -> Vec<u8> {
    let mut b = Vec::with_capacity(14 + 20 + 8 + payload.len().max(8));
    // Ethernet.
    b.extend_from_slice(&eth_dst.to_be_bytes()[2..]); // 6 bytes
    b.extend_from_slice(&eth_src.to_be_bytes()[2..]);
    b.extend_from_slice(&(crate::headers::consts::ETHERTYPE_IPV4 as u16).to_be_bytes());
    // IPv4.
    let payload_len = payload.len().max(8);
    let total_len = 20 + 8 + payload_len;
    b.push(0x45); // ver 4, ihl 5
    b.push(0);
    b.extend_from_slice(&(total_len as u16).to_be_bytes());
    b.extend_from_slice(&0u16.to_be_bytes()); // id
    b.extend_from_slice(&0u16.to_be_bytes()); // flags/frag
    b.push(64); // ttl
    b.push(crate::headers::consts::PROTO_UDP as u8);
    b.extend_from_slice(&0u16.to_be_bytes()); // checksum (computed by stages if desired)
    b.extend_from_slice(&ip_src.to_be_bytes());
    b.extend_from_slice(&ip_dst.to_be_bytes());
    // UDP.
    b.extend_from_slice(&sport.to_be_bytes());
    b.extend_from_slice(&dport.to_be_bytes());
    b.extend_from_slice(&((8 + payload_len) as u16).to_be_bytes());
    b.extend_from_slice(&0u16.to_be_bytes());
    // Payload, padded to the 8-byte signature window.
    b.extend_from_slice(payload);
    b.extend(std::iter::repeat_n(0, 8usize.saturating_sub(payload.len())));
    b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_udp_packet() {
        let pkt = build_udp_packet(0x0a, 0x0b, 0xc0a80001, 0xc0a80002, 1234, 53, b"dnsquery");
        let parsed = standard_parser().parse(&pkt).unwrap();
        assert!(parsed.phv.is_valid("eth"));
        assert!(parsed.phv.is_valid("ipv4"));
        assert!(parsed.phv.is_valid("udp"));
        assert!(parsed.phv.is_valid("sig"));
        assert!(!parsed.phv.is_valid("tcp"));
        assert_eq!(parsed.phv.get("ipv4.src"), 0xc0a80001);
        assert_eq!(parsed.phv.get("ipv4.ttl"), 64);
        assert_eq!(parsed.phv.get("udp.dport"), 53);
        assert_eq!(
            parsed.phv.get("sig.window"),
            u64::from_be_bytes(*b"dnsquery")
        );
    }

    #[test]
    fn non_ip_stops_at_ethernet() {
        let mut pkt = build_udp_packet(1, 2, 3, 4, 5, 6, b"x");
        pkt[12] = 0x08;
        pkt[13] = 0x06; // ARP ethertype
        let parsed = standard_parser().parse(&pkt).unwrap();
        assert!(parsed.phv.is_valid("eth"));
        assert!(!parsed.phv.is_valid("ipv4"));
        assert_eq!(parsed.payload_offset, 14);
    }

    #[test]
    fn truncated_packet_rejected() {
        let pkt = build_udp_packet(1, 2, 3, 4, 5, 6, b"payload!");
        let err = standard_parser().parse(&pkt[..20]).unwrap_err();
        assert!(matches!(err, ParseErr::Truncated { .. }));
    }

    #[test]
    fn deparse_round_trips_unmodified() {
        let pkt = build_udp_packet(0xaa, 0xbb, 1, 2, 10, 20, b"hello!!!");
        let parsed = standard_parser().parse(&pkt).unwrap();
        assert_eq!(deparse(&parsed, &pkt), pkt);
    }

    #[test]
    fn deparse_reflects_field_rewrites() {
        let pkt = build_udp_packet(0xaa, 0xbb, 1, 2, 10, 20, b"hello!!!");
        let mut parsed = standard_parser().parse(&pkt).unwrap();
        parsed.phv.set("ipv4.ttl", 63);
        let out = deparse(&parsed, &pkt);
        let reparsed = standard_parser().parse(&out).unwrap();
        assert_eq!(reparsed.phv.get("ipv4.ttl"), 63);
        // Payload untouched.
        assert_eq!(&out[out.len() - 8..], b"hello!!!");
    }

    #[test]
    fn unknown_state_is_error() {
        let p = ParserDef {
            start: "missing".into(),
            states: vec![],
        };
        assert_eq!(
            p.parse(&[0u8; 64]).unwrap_err(),
            ParseErr::UnknownState("missing".into())
        );
    }

    #[test]
    fn cyclic_parser_hits_budget() {
        let p = ParserDef {
            start: "a".into(),
            states: vec![ParseState {
                name: "a".into(),
                extract: None,
                select: Select::On {
                    field: "x".into(),
                    cases: BTreeMap::new(),
                    default: Some("a".into()),
                },
            }],
        };
        assert_eq!(p.parse(&[0u8; 8]).unwrap_err(), ParseErr::Looping);
    }
}
