//! Match-action tables: exact, LPM, and ternary matching over PHV
//! fields, with priority-ordered entries and default actions — the
//! "Match" half of a PISA stage.

use crate::actions::Action;
use crate::phv::Phv;
use std::fmt;

/// How one key column matches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchKind {
    /// Value must equal the entry's key exactly.
    Exact,
    /// Longest-prefix match over the top `prefix_len` bits of a 32-bit
    /// value.
    Lpm,
    /// Value AND mask must equal key AND mask.
    Ternary,
}

/// A key column: which PHV field, matched how.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeyCol {
    /// PHV slot name.
    pub field: String,
    /// Matching discipline.
    pub kind: MatchKind,
}

/// One cell of an entry's key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyCell {
    /// Exact value.
    Exact(u64),
    /// value/prefix_len over 32 bits.
    Lpm {
        /// Prefix value (already masked).
        value: u32,
        /// Prefix length in bits (0..=32).
        prefix_len: u8,
    },
    /// value & mask.
    Ternary {
        /// Match value.
        value: u64,
        /// Care mask.
        mask: u64,
    },
    /// Wildcard (matches anything; only legal in ternary columns).
    Any,
}

impl KeyCell {
    fn matches(&self, v: u64) -> bool {
        match self {
            KeyCell::Exact(k) => v == *k,
            KeyCell::Lpm { value, prefix_len } => {
                let mask = prefix_mask(*prefix_len);
                (v as u32) & mask == *value & mask
            }
            KeyCell::Ternary { value, mask } => v & mask == value & mask,
            KeyCell::Any => true,
        }
    }

    /// How many bits this cell pins (64 for exact, mask popcount for
    /// ternary, prefix length for LPM, 0 for wildcard) — the
    /// tie-breaking component of lookup precedence.
    pub fn specificity(&self) -> u32 {
        match self {
            KeyCell::Exact(_) => 64,
            KeyCell::Lpm { prefix_len, .. } => u32::from(*prefix_len),
            KeyCell::Ternary { mask, .. } => mask.count_ones(),
            KeyCell::Any => 0,
        }
    }
}

fn prefix_mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len.min(32)))
    }
}

/// A table entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Entry {
    /// One cell per key column.
    pub key: Vec<KeyCell>,
    /// Explicit priority (higher wins); ties broken by specificity,
    /// then insertion order.
    pub priority: i32,
    /// Action executed on hit.
    pub action: Action,
}

/// A match-action table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Table {
    /// Table name (part of the program digest).
    pub name: String,
    /// Key columns.
    pub key: Vec<KeyCol>,
    /// Entries, insertion-ordered.
    pub entries: Vec<Entry>,
    /// Action on miss.
    pub default_action: Action,
}

/// Error from entry insertion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntryShapeError {
    /// Table name.
    pub table: String,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for EntryShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad entry for table {}: {}", self.table, self.message)
    }
}

impl std::error::Error for EntryShapeError {}

impl Table {
    /// New empty table.
    pub fn new(name: impl Into<String>, key: Vec<KeyCol>, default_action: Action) -> Table {
        Table {
            name: name.into(),
            key,
            entries: Vec::new(),
            default_action,
        }
    }

    /// Insert an entry, validating cell kinds against the columns.
    pub fn insert(&mut self, entry: Entry) -> Result<(), EntryShapeError> {
        if entry.key.len() != self.key.len() {
            return Err(EntryShapeError {
                table: self.name.clone(),
                message: format!(
                    "entry has {} cells, table has {} columns",
                    entry.key.len(),
                    self.key.len()
                ),
            });
        }
        for (cell, col) in entry.key.iter().zip(&self.key) {
            let ok = matches!(
                (cell, col.kind),
                (KeyCell::Exact(_), MatchKind::Exact)
                    | (KeyCell::Lpm { .. }, MatchKind::Lpm)
                    | (KeyCell::Ternary { .. }, MatchKind::Ternary)
                    | (KeyCell::Any, MatchKind::Ternary)
                    | (KeyCell::Any, MatchKind::Lpm)
            );
            if !ok {
                return Err(EntryShapeError {
                    table: self.name.clone(),
                    message: format!(
                        "cell {cell:?} illegal in {:?} column {}",
                        col.kind, col.field
                    ),
                });
            }
        }
        self.entries.push(entry);
        Ok(())
    }

    /// Look up the best-matching entry's action for the PHV. Returns the
    /// default action on miss. The action is borrowed from the table,
    /// not the PHV, so the caller may execute it on that same PHV.
    pub fn lookup(&self, phv: &Phv) -> &Action {
        let values: Vec<u64> = self.key.iter().map(|c| phv.get(&c.field)).collect();
        let mut best: Option<(i32, u32, usize)> = None; // (priority, specificity, index)
        for (i, e) in self.entries.iter().enumerate() {
            if e.key.iter().zip(&values).all(|(cell, v)| cell.matches(*v)) {
                let spec: u32 = e.key.iter().map(KeyCell::specificity).sum();
                // Earlier insertion wins ties, so use > (not >=) against
                // (priority, spec) and compare index ascending.
                let cand = (e.priority, spec, i);
                best = match best {
                    None => Some(cand),
                    Some(b) if (cand.0, cand.1) > (b.0, b.1) => Some(cand),
                    Some(b) => Some(b),
                };
            }
        }
        match best {
            Some((_, _, i)) => &self.entries[i].action,
            None => &self.default_action,
        }
    }

    /// A canonical byte encoding of the table *definition and entries* —
    /// this is what PERA attests when the detail level includes tables.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.name.as_bytes());
        out.push(0);
        for c in &self.key {
            out.extend_from_slice(c.field.as_bytes());
            out.push(match c.kind {
                MatchKind::Exact => 1,
                MatchKind::Lpm => 2,
                MatchKind::Ternary => 3,
            });
        }
        for e in &self.entries {
            out.extend_from_slice(&e.priority.to_be_bytes());
            for cell in &e.key {
                match cell {
                    KeyCell::Exact(v) => {
                        out.push(1);
                        out.extend_from_slice(&v.to_be_bytes());
                    }
                    KeyCell::Lpm { value, prefix_len } => {
                        out.push(2);
                        out.extend_from_slice(&value.to_be_bytes());
                        out.push(*prefix_len);
                    }
                    KeyCell::Ternary { value, mask } => {
                        out.push(3);
                        out.extend_from_slice(&value.to_be_bytes());
                        out.extend_from_slice(&mask.to_be_bytes());
                    }
                    KeyCell::Any => out.push(4),
                }
            }
            out.extend_from_slice(&e.action.canonical_bytes());
        }
        out.extend_from_slice(&self.default_action.canonical_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actions::Primitive;

    fn act(tag: u64) -> Action {
        Action::named(
            format!("a{tag}"),
            vec![Primitive::SetField {
                field: "meta.egress_port".into(),
                value: tag,
            }],
        )
    }

    fn exact_table() -> Table {
        let mut t = Table::new(
            "fwd",
            vec![KeyCol {
                field: "ipv4.dst".into(),
                kind: MatchKind::Exact,
            }],
            act(99),
        );
        t.insert(Entry {
            key: vec![KeyCell::Exact(10)],
            priority: 0,
            action: act(1),
        })
        .unwrap();
        t.insert(Entry {
            key: vec![KeyCell::Exact(20)],
            priority: 0,
            action: act(2),
        })
        .unwrap();
        t
    }

    fn phv_with(field: &str, v: u64) -> Phv {
        let mut p = Phv::new();
        p.set(field, v);
        p
    }

    #[test]
    fn exact_hit_and_miss() {
        let t = exact_table();
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 10)).name, "a1");
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 20)).name, "a2");
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 30)).name, "a99");
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = Table::new(
            "route",
            vec![KeyCol {
                field: "ipv4.dst".into(),
                kind: MatchKind::Lpm,
            }],
            act(0),
        );
        // 10.0.0.0/8 → 1; 10.1.0.0/16 → 2; default → 0.
        t.insert(Entry {
            key: vec![KeyCell::Lpm {
                value: 0x0a00_0000,
                prefix_len: 8,
            }],
            priority: 0,
            action: act(1),
        })
        .unwrap();
        t.insert(Entry {
            key: vec![KeyCell::Lpm {
                value: 0x0a01_0000,
                prefix_len: 16,
            }],
            priority: 0,
            action: act(2),
        })
        .unwrap();
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 0x0a01_0203)).name, "a2");
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 0x0a02_0203)).name, "a1");
        assert_eq!(t.lookup(&phv_with("ipv4.dst", 0x0b00_0001)).name, "a0");
    }

    #[test]
    fn ternary_priority_and_wildcard() {
        let mut t = Table::new(
            "acl",
            vec![
                KeyCol {
                    field: "ipv4.src".into(),
                    kind: MatchKind::Ternary,
                },
                KeyCol {
                    field: "ipv4.proto".into(),
                    kind: MatchKind::Ternary,
                },
            ],
            act(0),
        );
        // Deny proto 6 from 10.0.0.0/8 (high priority), allow the rest
        // of 10/8, wildcard fallthrough.
        t.insert(Entry {
            key: vec![
                KeyCell::Ternary {
                    value: 0x0a00_0000,
                    mask: 0xff00_0000,
                },
                KeyCell::Ternary {
                    value: 6,
                    mask: 0xff,
                },
            ],
            priority: 10,
            action: act(1),
        })
        .unwrap();
        t.insert(Entry {
            key: vec![
                KeyCell::Ternary {
                    value: 0x0a00_0000,
                    mask: 0xff00_0000,
                },
                KeyCell::Any,
            ],
            priority: 5,
            action: act(2),
        })
        .unwrap();
        let mut p = Phv::new();
        p.set("ipv4.src", 0x0a01_0101);
        p.set("ipv4.proto", 6);
        assert_eq!(t.lookup(&p).name, "a1");
        p.set("ipv4.proto", 17);
        assert_eq!(t.lookup(&p).name, "a2");
        p.set("ipv4.src", 0x0b01_0101);
        assert_eq!(t.lookup(&p).name, "a0");
    }

    #[test]
    fn insertion_order_breaks_ties() {
        let mut t = Table::new(
            "t",
            vec![KeyCol {
                field: "x".into(),
                kind: MatchKind::Ternary,
            }],
            act(0),
        );
        for tag in [1u64, 2] {
            t.insert(Entry {
                key: vec![KeyCell::Any],
                priority: 0,
                action: act(tag),
            })
            .unwrap();
        }
        assert_eq!(t.lookup(&Phv::new()).name, "a1");
    }

    #[test]
    fn shape_validation() {
        let mut t = exact_table();
        // Wrong arity.
        assert!(t
            .insert(Entry {
                key: vec![],
                priority: 0,
                action: act(1)
            })
            .is_err());
        // Ternary cell in exact column.
        assert!(t
            .insert(Entry {
                key: vec![KeyCell::Ternary { value: 0, mask: 0 }],
                priority: 0,
                action: act(1)
            })
            .is_err());
    }

    #[test]
    fn canonical_bytes_change_with_entries() {
        let t1 = exact_table();
        let mut t2 = exact_table();
        let before = t2.canonical_bytes();
        assert_eq!(t1.canonical_bytes(), before);
        t2.insert(Entry {
            key: vec![KeyCell::Exact(30)],
            priority: 0,
            action: act(3),
        })
        .unwrap();
        assert_ne!(t2.canonical_bytes(), before);
    }

    #[test]
    fn zero_length_prefix_matches_everything() {
        let cell = KeyCell::Lpm {
            value: 0,
            prefix_len: 0,
        };
        assert!(cell.matches(0xffff_ffff));
        assert!(cell.matches(0));
    }
}
