//! Fleet construction and reference-state enrollment.
//!
//! The service appraises evidence produced by a simulated PERA fleet.
//! Both sides of the E18 experiment — the serving process and the
//! submitting client — must agree on the fleet's verification keys and
//! golden values *without* exchanging them: PERA switch signing keys
//! are deterministic functions of the switch name, so each side
//! rebuilds the identical enrollment from the topology shape alone.

use pda_crypto::keyreg::KeyRegistry;
use pda_netsim::{enroll_golden, linear_path, LinearPath};
use pda_pera::config::{DetailLevel, PeraConfig, Sampling};
use pda_pera::GoldenStore;

/// Build the standard service fleet: a linear path of `hops` PERA
/// switches attesting Hardware+Program on every packet — continuous
/// attestation wants a verdict per packet, not per flow.
pub fn standard_fleet(hops: usize) -> LinearPath {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    linear_path(hops, &config, &[])
}

/// Enroll golden values for every PERA switch in the fleet at the
/// levels the default config attests (Hardware, Program): the
/// simulator's [`enroll_golden`] at those levels.
pub fn enroll_fleet_golden(fleet: &LinearPath) -> GoldenStore {
    enroll_golden(&fleet.sim, &[DetailLevel::Hardware, DetailLevel::Program])
}

/// The fleet's key registry (deterministic: rebuilt identically by
/// any process that constructs the same fleet).
pub fn fleet_registry(fleet: &LinearPath) -> KeyRegistry {
    fleet.sim.registry.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enrollment_is_deterministic_across_rebuilds() {
        let a = standard_fleet(3);
        let b = standard_fleet(3);
        let ga = enroll_fleet_golden(&a);
        let gb = enroll_fleet_golden(&b);
        for sw in ["sw1", "sw2", "sw3"] {
            for level in [DetailLevel::Hardware, DetailLevel::Program] {
                assert!(ga.expected(sw, level).is_some(), "{sw} {level:?} enrolled");
                assert_eq!(ga.expected(sw, level), gb.expected(sw, level));
            }
        }
        assert_eq!(fleet_registry(&a).len(), fleet_registry(&b).len());
    }

    #[test]
    fn fleet_enrollment_is_the_shared_loop_at_hardware_and_program() {
        let fleet = standard_fleet(3);
        let ours = enroll_fleet_golden(&fleet);
        let shared = enroll_golden(&fleet.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
        for sw in ["sw1", "sw2", "sw3"] {
            for level in DetailLevel::ALL {
                let enrolled = matches!(level, DetailLevel::Hardware | DetailLevel::Program);
                assert_eq!(ours.expected(sw, level).is_some(), enrolled, "{sw} {level}");
                assert_eq!(ours.expected(sw, level), shared.expected(sw, level));
            }
        }
    }
}
