//! Match-action tables: exact, LPM, and ternary matching over PHV
//! fields, with priority-ordered entries and default actions — the
//! "Match" half of a PISA stage.
//!
//! A lookup returns the matching entry of highest priority, then
//! highest summed [`KeyCell::specificity`], then earliest insertion.
//! It does not test every entry. [`Table::insert`] files each entry in
//! a *tuple space* (Srinivasan, Suri & Varghese, SIGCOMM '99; the scheme
//! behind Open vSwitch's classifier): entries sharing a priority, a
//! summed specificity and a per-column care mask form one tuple, which
//! keeps its entries' masked-key hashes, each with the entry's insertion
//! index, in sorted order. [`Table::lookup`] walks the tuples from the
//! highest (priority, specificity) down, hashes the PHV's key values
//! under each tuple's masks, binary-searches that hash, and confirms a
//! candidate with the entry's own cells, so a hash collision costs a
//! comparison, never a wrong answer. The first hit fixes the winning
//! level; the other tuples at that level are probed for an earlier
//! insertion, and the walk stops. A stage therefore costs one probe per
//! tuple it visits, however many entries each tuple holds.

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

    /// The bits this cell compares, as `(care mask, key under the
    /// mask)`: a value `v` matches exactly when `v & mask` equals the
    /// key. An LPM mask stops at 32 bits whatever the prefix length.
    fn masked(&self) -> (u64, u64) {
        match self {
            KeyCell::Exact(k) => (u64::MAX, *k),
            KeyCell::Lpm { value, prefix_len } => {
                let mask = prefix_mask(*prefix_len);
                (u64::from(mask), u64::from(value & mask))
            }
            KeyCell::Ternary { value, mask } => (*mask, value & mask),
            KeyCell::Any => (0, 0),
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
    /// Entries, insertion-ordered. Private so that every entry goes
    /// through [`Table::insert`], which keeps `tuples` in step.
    entries: Vec<Entry>,
    /// Action on miss.
    pub default_action: Action,
    /// The tuple space over `entries`, in descending (priority,
    /// specificity) order; tuples of one level in order of creation.
    tuples: Vec<Tuple>,
}

/// The entries sharing one priority, summed specificity and per-column
/// care mask.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Tuple {
    /// (priority, summed specificity).
    level: (i32, u32),
    /// One care mask per key cell.
    masks: Box<[u64]>,
    /// `(masked-key hash, insertion index)` of each entry, ascending.
    slots: Vec<(u32, u32)>,
}

/// The odd multiplier of [`key_hash`] (rustc's FxHasher constant).
const MIX: u64 = 0x517c_c1b7_2722_0a95;

/// Hash of one key's masked column values: the high half of a
/// multiply-rotate mix, as in rustc's FxHasher. Equal keys hash equal;
/// a collision between different keys only adds a candidate to confirm.
fn key_hash(masked: impl Iterator<Item = u64>) -> u32 {
    let h = masked.fold(0u64, |h, v| (h.rotate_left(5) ^ v).wrapping_mul(MIX));
    (h >> 32) as u32
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
            tuples: Vec::new(),
        }
    }

    /// The entries, in insertion order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
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
        let index = u32::try_from(self.entries.len())
            .expect("a table holds fewer than 2^32 entries: each takes over 50 bytes");
        self.file(&entry, index);
        self.entries.push(entry);
        Ok(())
    }

    /// Add entry `index` to its tuple, creating the tuple after the
    /// others of its level when it is the first of its masks.
    fn file(&mut self, entry: &Entry, index: u32) {
        let level = (
            entry.priority,
            entry.key.iter().map(KeyCell::specificity).sum::<u32>(),
        );
        let masks = || entry.key.iter().map(|c| c.masked().0);
        let first = self.tuples.partition_point(|t| t.level > level);
        let same = self.tuples[first..].partition_point(|t| t.level == level);
        let at = match self.tuples[first..first + same]
            .iter()
            .position(|t| t.masks.iter().copied().eq(masks()))
        {
            Some(i) => first + i,
            None => {
                self.tuples.insert(
                    first + same,
                    Tuple {
                        level,
                        masks: masks().collect(),
                        slots: Vec::new(),
                    },
                );
                first + same
            }
        };
        let slots = &mut self.tuples[at].slots;
        // The newest index sorts after every slot of an equal hash.
        let hash = key_hash(entry.key.iter().map(|c| c.masked().1));
        let pos = slots.partition_point(|&(h, _)| h <= hash);
        slots.insert(pos, (hash, index));
    }

    /// Look up the best-matching entry's action for the PHV. Returns the
    /// default action on miss. The action is borrowed from the table,
    /// not the PHV, so the caller may execute it on that same PHV.
    pub fn lookup(&self, phv: &Phv) -> &Action {
        let values: Vec<u64> = self.key.iter().map(|c| phv.get(&c.field)).collect();
        // The earliest matching entry so far, and its tuple's level.
        let mut best: Option<(u32, (i32, u32))> = None;
        for t in &self.tuples {
            if best.is_some_and(|(_, level)| level != t.level) {
                break; // lower levels cannot beat a hit
            }
            let hash = key_hash(values.iter().zip(&*t.masks).map(|(v, m)| v & m));
            let from = t.slots.partition_point(|&(h, _)| h < hash);
            for &(h, i) in &t.slots[from..] {
                if h != hash || best.is_some_and(|(b, _)| b < i) {
                    break;
                }
                let e = &self.entries[i as usize];
                if e.key.iter().zip(&values).all(|(cell, v)| cell.matches(*v)) {
                    best = Some((i, t.level));
                    break;
                }
            }
        }
        match best {
            Some((i, _)) => &self.entries[i as usize].action,
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

    fn one_col(kind: MatchKind) -> Table {
        Table::new(
            "t",
            vec![KeyCol {
                field: "x".into(),
                kind,
            }],
            act(0),
        )
    }

    fn add(t: &mut Table, cell: KeyCell, priority: i32, tag: u64) {
        t.insert(Entry {
            key: vec![cell],
            priority,
            action: act(tag),
        })
        .unwrap();
    }

    #[test]
    fn tuples_group_by_level_and_mask() {
        let mut t = one_col(MatchKind::Ternary);
        let cell = |value, mask| KeyCell::Ternary { value, mask };
        add(&mut t, cell(0x1200, 0xff00), 0, 1);
        add(&mut t, cell(0x34, 0xff), 0, 2);
        add(&mut t, cell(0x5600, 0xff00), 0, 3);
        add(&mut t, cell(0, 0), 0, 4);
        add(&mut t, cell(7, u64::MAX), -1, 5);
        add(&mut t, KeyCell::Any, 0, 6);
        let shape: Vec<_> = t
            .tuples
            .iter()
            .map(|g| {
                let mut ids: Vec<u32> = g.slots.iter().map(|&(_, i)| i).collect();
                ids.sort_unstable();
                (g.level, &*g.masks, ids)
            })
            .collect();
        assert_eq!(
            shape,
            vec![
                ((0, 8), &[0xff00][..], vec![0, 2]),
                ((0, 8), &[0xff][..], vec![1]),
                ((0, 0), &[0][..], vec![3, 5]),
                ((-1, 64), &[u64::MAX][..], vec![4]),
            ]
        );
    }

    #[test]
    fn same_level_tuples_yield_the_earliest_entry() {
        // Entries 0 and 2 share a tuple, entry 1 has its own at the same
        // level: a probe matching 1 and 2 must get 1, though the walk
        // meets entry 2's tuple first.
        let mut t = one_col(MatchKind::Ternary);
        let cell = |value, mask| KeyCell::Ternary { value, mask };
        add(&mut t, cell(0x1200, 0xff00), 0, 1);
        add(&mut t, cell(0x34, 0xff), 0, 2);
        add(&mut t, cell(0x5600, 0xff00), 0, 3);
        assert_eq!(t.lookup(&phv_with("x", 0x5634)).name, "a2");
        assert_eq!(t.lookup(&phv_with("x", 0x1234)).name, "a1");
        assert_eq!(t.lookup(&phv_with("x", 0x5699)).name, "a3");
        assert_eq!(t.lookup(&phv_with("x", 0x9999)).name, "a0");
    }

    #[test]
    fn hash_collision_costs_a_comparison_not_a_wrong_answer() {
        // MIX is odd, so it has an inverse mod 2^64 (Newton's iteration
        // doubles the correct low bits each step); keys 0 and MIX⁻¹ mix
        // to 0 and 1, whose high halves agree.
        let mut inv = MIX;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MIX.wrapping_mul(inv)));
        }
        assert_eq!(MIX.wrapping_mul(inv), 1);
        assert_eq!(key_hash([0].into_iter()), key_hash([inv].into_iter()));
        let mut t = one_col(MatchKind::Exact);
        add(&mut t, KeyCell::Exact(0), 0, 1);
        add(&mut t, KeyCell::Exact(inv), 0, 2);
        assert_eq!(t.lookup(&phv_with("x", inv)).name, "a2");
        assert_eq!(t.lookup(&phv_with("x", 0)).name, "a1");
    }

    #[test]
    fn prefix_length_past_32_outranks_a_full_prefix() {
        // Both masks stop at 32 bits; specificity counts the raw length.
        let mut t = one_col(MatchKind::Lpm);
        let lpm = |prefix_len| KeyCell::Lpm {
            value: 0x0a00_0001,
            prefix_len,
        };
        add(&mut t, lpm(32), 0, 1);
        add(&mut t, lpm(40), 0, 2);
        assert_eq!(t.lookup(&phv_with("x", 0x0a00_0001)).name, "a2");
        assert_eq!(t.lookup(&phv_with("x", 0x0a00_0002)).name, "a0");
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
