//! Churn-driven continuous attestation (the E18 load generator).
//!
//! Streams evidence through a *live* service while the attested fleet
//! churns the way real networks do: every epoch the fleet restarts
//! (fresh switches, same identities), links go lossy, the control
//! channel drops and retries, switches go down mid-epoch, and every
//! few epochs a switch comes back with a rogue program loaded — the
//! paper's program-swap attack, which the quorum must catch.
//!
//! All submission and appraisal happens over real TCP through
//! [`SvcClient`]; latencies are measured at the client (full RTT
//! including the federation's appraisal work).

use crate::client::SvcClient;
use crate::fleet::standard_fleet;
use pda_crypto::nonce::Nonce;
use pda_dataplane::programs;
use pda_netsim::{ControlRetryPolicy, DeviceKind, EvidenceMode, FaultPlan, LinearPath, LinkFaults};
use pda_pera::EvidenceRecord;
use pda_telemetry::json::Json;
use pda_telemetry::{percentile, Telemetry};
use std::time::Instant;

/// Churn-run shape.
#[derive(Clone, Debug)]
pub struct ChurnConfig {
    /// Epochs; each is a fresh fleet instance (a restart).
    pub epochs: usize,
    /// Attested packets per epoch (one appraisal each).
    pub packets_per_epoch: usize,
    /// Switches in the fleet's path.
    pub hops: usize,
    /// Fault-plane seed (varied per epoch).
    pub seed: u64,
    /// Per-link data-plane loss probability.
    pub link_loss: f64,
    /// Out-of-band control-channel loss probability (evidence path);
    /// retransmits per [`ControlRetryPolicy::default`] cover it.
    pub control_loss: f64,
    /// Every Nth epoch, `sw1` restarts with a rogue program
    /// (0 = never).
    pub rogue_every: usize,
    /// Take a mid-path switch down for a window each epoch.
    pub switch_down: bool,
}

impl Default for ChurnConfig {
    fn default() -> ChurnConfig {
        ChurnConfig {
            epochs: 10,
            packets_per_epoch: 10,
            hops: 3,
            seed: 42,
            link_loss: 0.05,
            control_loss: 0.2,
            rogue_every: 4,
            switch_down: false,
        }
    }
}

/// What a churn run did and how fast the service kept up.
#[derive(Clone, Debug, Default)]
pub struct ChurnReport {
    /// Epochs driven.
    pub epochs: usize,
    /// Epochs where `sw1` ran the rogue program.
    pub rogue_epochs: usize,
    /// Evidence records submitted over the wire.
    pub records_submitted: u64,
    /// Appraisals requested (one per surviving packet nonce).
    pub appraisals: u64,
    /// Quorum said yes.
    pub accepted: u64,
    /// Quorum said no.
    pub rejected: u64,
    /// Verdicts matching ground truth where ground truth is knowable:
    /// complete clean chains must be accepted, complete rogue chains
    /// rejected. Loss-truncated chains are indeterminate — the service
    /// can only judge the evidence that arrived — and count as correct
    /// either way (they are tallied in `incomplete_chains`).
    pub correct: u64,
    /// Rogue-epoch appraisals correctly rejected.
    pub rogue_detected: u64,
    /// Chains that lost hop records to faults before submission.
    pub incomplete_chains: u64,
    /// Packets the data plane dropped outright (no appraisal).
    pub packets_lost: u64,
    /// Wall-clock of the appraisal phase, nanoseconds.
    pub elapsed_ns: u64,
    /// Client-observed verdict latency percentiles, nanoseconds.
    pub p50_ns: u64,
    /// 99th percentile verdict latency, nanoseconds.
    pub p99_ns: u64,
    /// Mean verdict latency, nanoseconds.
    pub mean_ns: u64,
    /// Sustained appraisal throughput.
    pub appraisals_per_sec: f64,
}

/// Reload `sw1` with the Athens-affair wiretap variant: same identity
/// and signing keys, different (malicious) program — exactly what
/// golden-value appraisal exists to catch. The reload goes through
/// [`pda_pera::PeraSwitch::load_program`], so the switch re-measures
/// the program instead of attesting a cached digest of the one it
/// replaced. Public so `pda client submit --rogue` can stage the same
/// attack by hand.
pub fn rogue_reload(fleet: &mut LinearPath) {
    for node in &mut fleet.sim.topo.nodes {
        if node.name == "sw1" {
            if let DeviceKind::Pera(sw) = &mut node.kind {
                sw.load_program(programs::rogue_wiretap(&[(0, 0, 1)], &[0x0a00_0001], 9));
            }
        }
    }
}

/// Drive `config.epochs` of churn through the service at `client`.
/// `telemetry` is attached to every epoch's fleet (pass
/// [`Telemetry::off`] to record nothing), so one subscriber observes
/// the whole evidence lifecycle: the switch-side `pera.attest` spans
/// and channel send/retry events land on the same handle that (when it
/// also backs the service) sees the federation spans — one trace from
/// measurement to verdict.
pub fn run_churn(
    client: &SvcClient,
    config: &ChurnConfig,
    telemetry: &Telemetry,
) -> Result<ChurnReport, String> {
    let mut report = ChurnReport {
        epochs: config.epochs,
        ..ChurnReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    let run_start = Instant::now();

    for epoch in 0..config.epochs {
        // A fresh fleet IS the restart: same names, same deterministic
        // keys, state gone.
        let mut fleet = standard_fleet(config.hops);
        if telemetry.enabled() {
            fleet.sim.attach_telemetry(telemetry.clone());
        }
        let rogue = config.rogue_every > 0 && (epoch + 1) % config.rogue_every == 0;
        if rogue {
            rogue_reload(&mut fleet);
            report.rogue_epochs += 1;
        }
        let mut plan = FaultPlan::new(config.seed.wrapping_add(epoch as u64))
            .with_default_link(LinkFaults::lossy(config.link_loss))
            .with_control_loss(config.control_loss)
            .with_control_retry(ControlRetryPolicy::default());
        if config.switch_down && config.hops >= 2 {
            // A mid-path switch flaps for a window early in the epoch.
            let victim = fleet.switches[config.hops / 2];
            plan = plan.with_switch_down(victim, 5_000, 30_000);
        }
        fleet.sim.install_faults(plan);

        let appraiser = fleet.appraiser;
        let base_nonce = (epoch * config.packets_per_epoch) as u64 + 1;
        for i in 0..config.packets_per_epoch {
            let nonce = Nonce(base_nonce + i as u64);
            fleet.send_attested(nonce, EvidenceMode::OutOfBand { appraiser }, b"churn");
        }

        // Everything the collector saw this epoch, in one submission —
        // possibly duplicated by control retries; the service
        // reassembles.
        let collected: Vec<EvidenceRecord> = fleet.sim.evidence_at(appraiser).to_vec();
        if collected.is_empty() {
            report.packets_lost += config.packets_per_epoch as u64;
            continue;
        }
        report.records_submitted += collected.len() as u64;
        client.submit_evidence(&collected)?;

        for i in 0..config.packets_per_epoch {
            let nonce = base_nonce + i as u64;
            let complete = {
                let mut names: Vec<&str> = collected
                    .iter()
                    .filter(|r| r.nonce.0 == nonce)
                    .map(|r| r.switch.as_str())
                    .collect();
                names.sort_unstable();
                names.dedup();
                names.len() == config.hops
            };
            if !complete {
                report.incomplete_chains += 1;
            }
            if !collected.iter().any(|r| r.nonce.0 == nonce) {
                report.packets_lost += 1;
                continue;
            }
            let start = Instant::now();
            let verdict = client.appraise(nonce)?;
            latencies.push(start.elapsed().as_nanos() as u64);
            report.appraisals += 1;
            let ok = verdict.get("ok").and_then(Json::as_bool).unwrap_or(false);
            if ok {
                report.accepted += 1;
            } else {
                report.rejected += 1;
            }
            match (complete, rogue) {
                (false, _) => report.correct += 1, // indeterminate: truncated evidence
                (true, true) if !ok => report.correct += 1,
                (true, false) if ok => report.correct += 1,
                _ => {}
            }
            if rogue && !ok {
                report.rogue_detected += 1;
            }
        }
    }

    report.elapsed_ns = run_start.elapsed().as_nanos() as u64;
    latencies.sort_unstable();
    report.p50_ns = percentile(&latencies, 0.50);
    report.p99_ns = percentile(&latencies, 0.99);
    report.mean_ns = if latencies.is_empty() {
        0
    } else {
        latencies.iter().sum::<u64>() / latencies.len() as u64
    };
    report.appraisals_per_sec = if report.elapsed_ns == 0 {
        0.0
    } else {
        report.appraisals as f64 * 1e9 / report.elapsed_ns as f64
    };
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::serve;
    use crate::service::{AppraisalService, SvcConfig};
    use pda_telemetry::Telemetry;
    use std::sync::Arc;

    #[test]
    fn churn_streams_through_a_live_service() {
        let svc = Arc::new(AppraisalService::new(
            SvcConfig::default(),
            Telemetry::collecting(),
        ));
        let mut server = serve("127.0.0.1:0", 2, Arc::clone(&svc)).unwrap();
        let client = SvcClient::new(server.addr);
        let config = ChurnConfig {
            epochs: 4,
            packets_per_epoch: 3,
            rogue_every: 2,
            ..ChurnConfig::default()
        };
        let report = run_churn(&client, &config, &Telemetry::off()).expect("churn run completes");
        server.stop();

        assert_eq!(report.rogue_epochs, 2);
        assert!(report.appraisals > 0, "some chains survived the faults");
        assert_eq!(
            report.correct, report.appraisals,
            "every verdict matched expectation: {report:?}"
        );
        assert!(
            report.rogue_detected > 0 || report.packets_lost >= 6,
            "rogue epochs detected unless wholly lost: {report:?}"
        );
        assert!(report.p99_ns >= report.p50_ns);
    }

    #[test]
    fn faultless_churn_appraises_everything() {
        let svc = Arc::new(AppraisalService::new(
            SvcConfig::default(),
            Telemetry::collecting(),
        ));
        let mut server = serve("127.0.0.1:0", 2, Arc::clone(&svc)).unwrap();
        let client = SvcClient::new(server.addr);
        let config = ChurnConfig {
            epochs: 2,
            packets_per_epoch: 5,
            link_loss: 0.0,
            control_loss: 0.0,
            rogue_every: 0,
            ..ChurnConfig::default()
        };
        let report = run_churn(&client, &config, &Telemetry::off()).expect("churn run completes");
        server.stop();

        assert_eq!(report.appraisals, 10);
        assert_eq!(report.accepted, 10);
        assert_eq!(report.packets_lost, 0);
        assert_eq!(report.incomplete_chains, 0);
        assert!(report.appraisals_per_sec > 0.0);
    }
}
