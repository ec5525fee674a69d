//! PERA configuration: the Fig. 4 design space.
//!
//! "In addition to the specification language and execution mechanism,
//! we envisage a configuration interface that can tune the level of
//! detail and frequency of evidence" (§5.2). The three axes:
//!
//! * **Detail** — what is attested, ordered by *inertia* (how quickly it
//!   changes): hardware identity (never), program (on reload), tables
//!   (on rule update), program state/registers (per packet),
//!   packets themselves (every packet).
//! * **Sampling** — how often evidence is produced.
//! * **Composition** — pointwise (independent records) vs chained
//!   (hash-linked across hops/packets).

use std::fmt;

/// What a PERA switch attests — the Fig. 4 detail axis, declared from
/// highest inertia to lowest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum DetailLevel {
    /// Hardware platform identity (model/serial). Never changes.
    Hardware,
    /// The loaded dataplane program digest. Changes on reload.
    Program,
    /// Match-action table contents. Changes on rule updates.
    Tables,
    /// The static-analysis verdict over the loaded program + tables
    /// (`pda-analyze`): a digest of the sorted diagnostic list, so an
    /// appraiser can demand *semantic* cleanliness, not just a known
    /// hash. Changes when the program or its rules change — the enum
    /// position (after `Tables`, before `ProgState`) makes the cache's
    /// `>=` invalidation cascade re-lint on both reload and rule
    /// update.
    LintVerdict,
    /// Register/program state. Changes continuously.
    ProgState,
    /// The packet being processed. Different every time.
    Packets,
}

impl DetailLevel {
    /// All levels, highest inertia first.
    pub const ALL: [DetailLevel; 6] = [
        DetailLevel::Hardware,
        DetailLevel::Program,
        DetailLevel::Tables,
        DetailLevel::LintVerdict,
        DetailLevel::ProgState,
        DetailLevel::Packets,
    ];

    /// A coarse inertia score: expected attestations between changes
    /// (used by the cache to pick TTLs and by E8's model).
    pub fn inertia(self) -> u64 {
        match self {
            DetailLevel::Hardware => u64::MAX,
            DetailLevel::Program => 1_000_000,
            DetailLevel::Tables => 10_000,
            // Re-analyzed whenever program or tables change; slightly
            // lower inertia than Tables because either event churns it.
            DetailLevel::LintVerdict => 1_000,
            DetailLevel::ProgState => 1,
            DetailLevel::Packets => 0,
        }
    }
}

impl fmt::Display for DetailLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetailLevel::Hardware => "hardware",
            DetailLevel::Program => "program",
            DetailLevel::Tables => "tables",
            DetailLevel::LintVerdict => "lint-verdict",
            DetailLevel::ProgState => "prog-state",
            DetailLevel::Packets => "packets",
        };
        f.write_str(s)
    }
}

/// How often evidence is produced — the sampling axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sampling {
    /// Evidence for every packet (the paper's "at most, per hop and per
    /// packet" upper bound).
    PerPacket,
    /// Every Nth packet.
    EveryN(u32),
    /// Once per new flow (5-tuple).
    PerFlow,
    /// Once per epoch of N packets (the epoch id is attested).
    PerEpoch(u64),
    /// Once per flow *per epoch of N packets*: flow state resets at
    /// each epoch boundary, bounding detection latency (the mitigation
    /// for the pure-PerFlow blind spot that experiment E10 exposes:
    /// an established flow is otherwise never re-attested, so a
    /// mid-flow program swap goes unseen).
    PerFlowEpoch(u64),
}

impl fmt::Display for Sampling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sampling::PerPacket => write!(f, "per-packet"),
            Sampling::EveryN(n) => write!(f, "every-{n}"),
            Sampling::PerFlow => write!(f, "per-flow"),
            Sampling::PerEpoch(n) => write!(f, "per-epoch-{n}"),
            Sampling::PerFlowEpoch(n) => write!(f, "per-flow-epoch-{n}"),
        }
    }
}

/// How evidence records compose — the composition axis.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvidenceComposition {
    /// Each record stands alone.
    Pointwise,
    /// Records hash-chain: each folds the previous record's digest, so
    /// removal or reordering is detectable end-to-end.
    Chained,
}

impl fmt::Display for EvidenceComposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvidenceComposition::Pointwise => write!(f, "pointwise"),
            EvidenceComposition::Chained => write!(f, "chained"),
        }
    }
}

/// Full PERA evidence-engine configuration.
#[derive(Clone, Debug)]
pub struct PeraConfig {
    /// Which detail levels each evidence record covers.
    pub details: Vec<DetailLevel>,
    /// Sampling frequency.
    pub sampling: Sampling,
    /// Composition mode.
    pub composition: EvidenceComposition,
    /// Whether the inertia-keyed evidence cache is enabled.
    pub cache_enabled: bool,
    /// Evidence batch size for [`crate::PeraSwitch::process_batch`]:
    /// records accumulate unsigned and are batch-signed (one root
    /// signature + per-record inclusion proofs) every `batch_size`
    /// packets. Batching groups signatures only: every packet still
    /// runs the pipeline, and every record is measured and chained
    /// (ProgState included) exactly as on the per-packet path. `1`
    /// (the default) signs each record individually, matching the
    /// per-packet path exactly. Has no effect on
    /// [`crate::PeraSwitch::process_packet`], which always signs
    /// immediately.
    pub batch_size: u32,
}

impl Default for PeraConfig {
    /// The paper's sensible default: attest hardware + program, chained,
    /// once per flow, cache on.
    fn default() -> Self {
        PeraConfig {
            details: vec![DetailLevel::Hardware, DetailLevel::Program],
            sampling: Sampling::PerFlow,
            composition: EvidenceComposition::Chained,
            cache_enabled: true,
            batch_size: 1,
        }
    }
}

impl PeraConfig {
    /// Builder: set detail levels.
    pub fn with_details(mut self, details: &[DetailLevel]) -> PeraConfig {
        self.details = details.to_vec();
        self
    }

    /// Builder: set sampling.
    pub fn with_sampling(mut self, s: Sampling) -> PeraConfig {
        self.sampling = s;
        self
    }

    /// Builder: set composition.
    pub fn with_composition(mut self, c: EvidenceComposition) -> PeraConfig {
        self.composition = c;
        self
    }

    /// Builder: toggle the cache.
    pub fn with_cache(mut self, on: bool) -> PeraConfig {
        self.cache_enabled = on;
        self
    }

    /// Builder: set the evidence batch size (clamped to at least 1).
    pub fn with_batch(mut self, n: u32) -> PeraConfig {
        self.batch_size = n.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inertia_strictly_decreases_along_detail_axis() {
        for w in DetailLevel::ALL.windows(2) {
            assert!(w[0].inertia() > w[1].inertia(), "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn default_config_is_reasonable() {
        let c = PeraConfig::default();
        assert!(c.cache_enabled);
        assert_eq!(c.sampling, Sampling::PerFlow);
        assert_eq!(c.composition, EvidenceComposition::Chained);
        assert!(c.details.contains(&DetailLevel::Program));
    }

    #[test]
    fn builders_chain() {
        let c = PeraConfig::default()
            .with_details(&[DetailLevel::Packets])
            .with_sampling(Sampling::EveryN(10))
            .with_composition(EvidenceComposition::Pointwise)
            .with_cache(false)
            .with_batch(32);
        assert_eq!(c.details, vec![DetailLevel::Packets]);
        assert_eq!(c.sampling, Sampling::EveryN(10));
        assert!(!c.cache_enabled);
        assert_eq!(c.batch_size, 32);
        assert_eq!(PeraConfig::default().with_batch(0).batch_size, 1);
    }

    #[test]
    fn displays() {
        assert_eq!(DetailLevel::ProgState.to_string(), "prog-state");
        assert_eq!(Sampling::EveryN(5).to_string(), "every-5");
        assert_eq!(EvidenceComposition::Chained.to_string(), "chained");
    }
}
