//! Place runtimes: the per-place state an attestation protocol executes
//! against — components that can be measured, attestation sources,
//! signing identities, certificate stores, and (for attack experiments)
//! corruption state.

use crate::appraise::Verdicts;
use pda_copland::ast::Place;
use pda_crypto::digest::Digest;
use pda_crypto::nonce::Nonce;
use pda_crypto::sig::{SigScheme, Signer, VerifyKey};
use pda_telemetry::SpanSite;
use std::collections::HashMap;

/// A measurable component living at some place (a process, a dataplane
/// program, a table, …).
#[derive(Clone, Debug)]
pub struct Component {
    /// The component's *genuine* content digest (its golden value when
    /// uncorrupted).
    pub golden: Digest,
    /// Whether an adversary has currently corrupted it.
    pub corrupt: bool,
}

impl Component {
    /// A clean component whose content hashes to `H(content)`.
    pub fn clean(content: &[u8]) -> Component {
        Component {
            golden: Digest::of(content),
            corrupt: false,
        }
    }

    /// The digest a *faithful* measurement of this component observes:
    /// the golden value, or a derived "corrupted" value.
    pub fn observed(&self) -> Digest {
        if self.corrupt {
            self.golden.chain(b"CORRUPTED")
        } else {
            self.golden
        }
    }
}

/// Runtime state of one place.
pub struct PlaceRuntime {
    /// The place's name.
    pub place: Place,
    /// Signing identity for the `!` operator.
    pub signer: Signer,
    /// Measurable components by name.
    pub components: HashMap<String, Component>,
    /// Attestation sources: property name (e.g. `Hardware`, `Program`,
    /// or a program file name) → current value bytes for `attest(X)`.
    pub attest_sources: HashMap<String, Vec<u8>>,
    /// Nonce-keyed certificate/evidence store (`store(n)`/`retrieve(n)`).
    pub store: HashMap<Nonce, Vec<u8>>,
    /// Measurer components that currently lie (corrupted measurers
    /// report the golden value of whatever they measure).
    pub corrupt_measurers: Vec<String>,
}

impl PlaceRuntime {
    /// Create a runtime with an HMAC signer derived from the place name
    /// (convenient default; override `signer` for other schemes).
    pub fn new(place: impl Into<String>) -> PlaceRuntime {
        let place = Place::new(place.into());
        let seed = Digest::of_parts(&[b"place-seed", place.0.as_bytes()]).0;
        PlaceRuntime {
            place,
            signer: Signer::new(SigScheme::Hmac, seed, 0),
            components: HashMap::new(),
            attest_sources: HashMap::new(),
            store: HashMap::new(),
            corrupt_measurers: Vec::new(),
        }
    }

    /// Builder: use a specific signature scheme.
    pub fn with_scheme(mut self, scheme: SigScheme, mss_height: u32) -> PlaceRuntime {
        let seed = Digest::of_parts(&[b"place-seed", self.place.0.as_bytes()]).0;
        self.signer = Signer::new(scheme, seed, mss_height);
        self
    }

    /// Builder: add a clean component.
    pub fn with_component(mut self, name: impl Into<String>, content: &[u8]) -> PlaceRuntime {
        self.components
            .insert(name.into(), Component::clean(content));
        self
    }

    /// Builder: add an attestation source property.
    pub fn with_source(mut self, prop: impl Into<String>, value: &[u8]) -> PlaceRuntime {
        self.attest_sources.insert(prop.into(), value.to_vec());
        self
    }

    /// The verification key to register with appraisers. `epochs` bounds
    /// Lamport epochs (ignored for HMAC/Merkle).
    pub fn verify_key(&self, epochs: u64) -> VerifyKey {
        self.signer.verify_key(epochs)
    }

    /// Corrupt a component (adversary action).
    pub fn corrupt(&mut self, name: &str) {
        if let Some(c) = self.components.get_mut(name) {
            c.corrupt = true;
        }
        // A corrupted component that acts as a measurer lies.
        if !self.corrupt_measurers.iter().any(|m| m == name) {
            self.corrupt_measurers.push(name.to_string());
        }
    }

    /// Repair a component (adversary "hides its tracks").
    pub fn repair(&mut self, name: &str) {
        if let Some(c) = self.components.get_mut(name) {
            c.corrupt = false;
        }
        self.corrupt_measurers.retain(|m| m != name);
    }

    /// Swap an attestation source's value (e.g. the Athens-affair rogue
    /// program replacing the legitimate one).
    pub fn swap_source(&mut self, prop: &str, new_value: &[u8]) {
        self.attest_sources
            .insert(prop.to_string(), new_value.to_vec());
    }
}

/// The distributed environment: all place runtimes plus the key registry
/// appraisers verify against.
#[derive(Default)]
pub struct Environment {
    /// Place runtimes by name.
    pub places: HashMap<Place, PlaceRuntime>,
    /// Verification keys registered with the appraisal infrastructure.
    pub registry: pda_crypto::keyreg::KeyRegistry,
    /// Golden values the appraiser compares measurements against:
    /// (target place, component) → expected digest.
    pub golden: HashMap<(Place, String), Digest>,
    /// Expected attestation source values: (place, property) → digest.
    pub golden_sources: HashMap<(Place, String), Digest>,
    /// The `ra.appraise` and `ra.appraise_semantic` spans and the
    /// verdict books appraisals record into, resolved by
    /// [`Environment::with_telemetry`]; they record nothing by default.
    pub(crate) appraise_span: SpanSite,
    pub(crate) semantic_span: SpanSite,
    pub(crate) verdicts: Verdicts,
}

impl Environment {
    /// Empty environment.
    pub fn new() -> Environment {
        Environment::default()
    }

    /// Builder: attach a telemetry handle; appraisal verdicts audit
    /// through it (see [`crate::appraise::appraise`]). The spans and
    /// counters appraisals record into are resolved here, once.
    pub fn with_telemetry(mut self, tel: pda_telemetry::Telemetry) -> Environment {
        self.appraise_span = tel.span_site("ra.appraise");
        self.semantic_span = tel.span_site("ra.appraise_semantic");
        self.verdicts = Verdicts::new(&tel);
        self
    }

    /// Add a place: registers its key and records golden values for all
    /// its components and sources.
    pub fn add_place(&mut self, rt: PlaceRuntime) {
        let who = pda_crypto::keyreg::PrincipalId::new(rt.place.0.clone());
        // 64 pre-committed Lamport epochs: enough for every experiment
        // while keeping LamportOts registration cheap (each epoch key
        // derivation costs ~1k hashes).
        self.registry.register(who, rt.verify_key(64));
        for (name, c) in &rt.components {
            self.golden
                .insert((rt.place.clone(), name.clone()), c.golden);
        }
        for (prop, val) in &rt.attest_sources {
            self.golden_sources
                .insert((rt.place.clone(), prop.clone()), Digest::of(val));
        }
        self.places.insert(rt.place.clone(), rt);
    }

    /// Mutable access to a place runtime.
    pub fn place_mut(&mut self, name: &str) -> Option<&mut PlaceRuntime> {
        self.places.get_mut(&Place::new(name))
    }

    /// Shared access to a place runtime.
    pub fn place(&self, name: &str) -> Option<&PlaceRuntime> {
        self.places.get(&Place::new(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn component_observed_changes_with_corruption() {
        let mut c = Component::clean(b"content");
        let clean = c.observed();
        c.corrupt = true;
        assert_ne!(c.observed(), clean);
        c.corrupt = false;
        assert_eq!(c.observed(), clean);
    }

    #[test]
    fn corrupt_and_repair_cycle() {
        let mut rt = PlaceRuntime::new("us").with_component("bmon", b"bmon-v1");
        assert!(!rt.components["bmon"].corrupt);
        rt.corrupt("bmon");
        assert!(rt.components["bmon"].corrupt);
        assert!(rt.corrupt_measurers.contains(&"bmon".to_string()));
        rt.repair("bmon");
        assert!(!rt.components["bmon"].corrupt);
        assert!(rt.corrupt_measurers.is_empty());
    }

    #[test]
    fn environment_records_golden_values() {
        let mut env = Environment::new();
        env.add_place(
            PlaceRuntime::new("Switch")
                .with_component("fw", b"fw-v5")
                .with_source("Program", b"fw-v5-binary"),
        );
        assert_eq!(
            env.golden[&(Place::new("Switch"), "fw".to_string())],
            Digest::of(b"fw-v5")
        );
        assert_eq!(
            env.golden_sources[&(Place::new("Switch"), "Program".to_string())],
            Digest::of(b"fw-v5-binary")
        );
        assert!(env.registry.contains("Switch"));
    }

    #[test]
    fn swap_source_changes_value_not_golden() {
        let mut env = Environment::new();
        env.add_place(PlaceRuntime::new("Switch").with_source("Program", b"legit"));
        env.place_mut("Switch")
            .unwrap()
            .swap_source("Program", b"rogue");
        // The environment's golden record still expects the legit program.
        assert_eq!(
            env.golden_sources[&(Place::new("Switch"), "Program".to_string())],
            Digest::of(b"legit")
        );
        assert_eq!(
            env.place("Switch").unwrap().attest_sources["Program"],
            b"rogue".to_vec()
        );
    }
}
