//! The deterministic fault-injection plane.
//!
//! The seed simulator was a perfect-world testbed: links never lose,
//! duplicate, corrupt, or reorder packets; switches never go down; and
//! the out-of-band control channel is lossless. That leaves the paper's
//! degraded-conditions design space (UC3's "while under attack…")
//! unquantified. A [`FaultPlan`] describes per-link loss/duplication/
//! corruption probabilities, reorder jitter, administrative link-down
//! and switch-down windows, and independent loss on the out-of-band
//! control channel. The plan is *sampled* inside the event loop by a
//! [`FaultPlane`] holding a seeded PRNG, so the simulator's
//! byte-identical-per-seed determinism is preserved: same topology,
//! same injections, same `FaultPlan` (including seed) → identical
//! stats, deliveries, and audit logs. `tests/faults_det.rs` asserts
//! exactly that.
//!
//! Loss on the control channel is compensated by a timeout/retransmit
//! loop with exponential backoff ([`ControlRetryPolicy`]): each lost
//! push is re-sent after `base_timeout_ns · backoff^attempt` until the
//! retry budget is exhausted. The whole retransmit timeline is resolved
//! at send time (the simulation-standard "oracle" simplification — the
//! sender's timeout always fires after the real loss), which keeps the
//! event loop free of per-ack bookkeeping while matching the latency
//! and completeness a real ARQ would deliver.

use crate::topology::{NodeId, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Fault probabilities and jitter for one (or every) link direction.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LinkFaults {
    /// Probability a transmission is lost in flight.
    pub loss: f64,
    /// Probability a transmission is delivered twice.
    pub duplicate: f64,
    /// Probability one payload byte is flipped in flight.
    pub corrupt: f64,
    /// Maximum extra delivery delay, sampled uniformly from
    /// `0..=reorder_jitter_ns` per copy. Jitter larger than the gap
    /// between consecutive sends reorders them.
    pub reorder_jitter_ns: SimTime,
}

impl LinkFaults {
    /// A link that only loses packets.
    pub fn lossy(loss: f64) -> LinkFaults {
        LinkFaults {
            loss,
            ..LinkFaults::default()
        }
    }

    /// Does this configuration ever perturb a transmission?
    pub fn is_quiet(&self) -> bool {
        self.loss == 0.0
            && self.duplicate == 0.0
            && self.corrupt == 0.0
            && self.reorder_jitter_ns == 0
    }
}

/// A half-open outage window `[from, until)` in simulated time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DownWindow {
    /// First nanosecond of the outage.
    pub from: SimTime,
    /// First nanosecond after the outage.
    pub until: SimTime,
}

impl DownWindow {
    /// Is `t` inside the outage?
    pub fn contains(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// Timeout/retransmit policy for the out-of-band control channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControlRetryPolicy {
    /// Retransmissions after the first attempt (0 = fire-and-forget).
    pub max_retries: u32,
    /// Timeout before the first retransmit.
    pub base_timeout_ns: SimTime,
    /// Timeout multiplier per successive retransmit (exponential
    /// backoff; 1 = fixed interval).
    pub backoff: u32,
}

impl Default for ControlRetryPolicy {
    fn default() -> Self {
        ControlRetryPolicy {
            max_retries: 3,
            base_timeout_ns: 4 * crate::sim::CONTROL_LATENCY,
            backoff: 2,
        }
    }
}

impl ControlRetryPolicy {
    /// No retransmissions at all — the no-retry baseline for E16.
    pub fn none() -> ControlRetryPolicy {
        ControlRetryPolicy {
            max_retries: 0,
            ..ControlRetryPolicy::default()
        }
    }
}

/// A complete, declarative fault scenario. Build one with the
/// `with_*` combinators and hand it to `Simulator::install_faults`.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// PRNG seed; the sole source of randomness in a faulted run.
    pub seed: u64,
    /// Faults applied to every link direction.
    pub default_link: LinkFaults,
    /// Independent loss probability on the out-of-band control channel.
    pub control_loss: f64,
    /// Retransmit policy compensating `control_loss`.
    pub control_retry: ControlRetryPolicy,
    /// Administrative outages of individual link directions.
    pub link_down: HashMap<(NodeId, u64), Vec<DownWindow>>,
    /// Outages of whole switches (packets arriving during the window
    /// are dropped at the device).
    pub switch_down: HashMap<NodeId, Vec<DownWindow>>,
}

impl FaultPlan {
    /// An all-quiet plan under `seed`.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            default_link: LinkFaults::default(),
            control_loss: 0.0,
            control_retry: ControlRetryPolicy::default(),
            link_down: HashMap::new(),
            switch_down: HashMap::new(),
        }
    }

    /// Apply `faults` to every link direction by default.
    pub fn with_default_link(mut self, faults: LinkFaults) -> FaultPlan {
        self.default_link = faults;
        self
    }

    /// Set the control-channel loss probability.
    pub fn with_control_loss(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "p={p} is not a probability");
        self.control_loss = p;
        self
    }

    /// Set the control-channel retransmit policy.
    pub fn with_control_retry(mut self, policy: ControlRetryPolicy) -> FaultPlan {
        self.control_retry = policy;
        self
    }

    /// Take one link direction down for `[from, until)`.
    pub fn with_link_down(
        mut self,
        node: NodeId,
        port: u64,
        from: SimTime,
        until: SimTime,
    ) -> FaultPlan {
        self.link_down
            .entry((node, port))
            .or_default()
            .push(DownWindow { from, until });
        self
    }

    /// Take a whole switch down for `[from, until)`.
    pub fn with_switch_down(mut self, node: NodeId, from: SimTime, until: SimTime) -> FaultPlan {
        self.switch_down
            .entry(node)
            .or_default()
            .push(DownWindow { from, until });
        self
    }
}

/// What the fault plane did, as counters (mirrored to
/// `netsim.faults.*` gauges when telemetry is attached).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Data-plane transmissions lost.
    pub data_lost: u64,
    /// Data-plane transmissions duplicated.
    pub data_duplicated: u64,
    /// Data-plane transmissions with a byte flipped.
    pub data_corrupted: u64,
    /// Transmissions dropped because the link was down.
    pub link_down_drops: u64,
    /// Packets dropped at a switch that was down.
    pub switch_down_drops: u64,
    /// Control-channel attempts lost (pre-retransmit).
    pub control_lost: u64,
    /// Control-channel retransmissions sent.
    pub control_retransmits: u64,
    /// Control records abandoned after exhausting the retry budget.
    pub control_gave_up: u64,
}

/// Outcome of one data-plane transmission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxFate {
    /// Deliver one copy (`extra` jitter), and possibly a duplicate.
    Deliver {
        /// Jitter added to the first copy's delivery time.
        extra: SimTime,
        /// Jitter of the duplicate copy, when one was spawned.
        duplicate_extra: Option<SimTime>,
        /// Whether one payload byte must be flipped.
        corrupt: bool,
    },
    /// The sending link direction is administratively down.
    LinkDown,
    /// Lost in flight.
    Lost,
}

/// The runtime fault plane: a [`FaultPlan`] plus the seeded PRNG and
/// the counters. Owned by the simulator; one per run.
#[derive(Clone, Debug)]
pub struct FaultPlane {
    /// The scenario being executed.
    pub plan: FaultPlan,
    /// What has happened so far.
    pub stats: FaultStats,
    rng: StdRng,
}

impl FaultPlane {
    /// Instantiate a plan (seeds the PRNG from `plan.seed`).
    pub fn new(plan: FaultPlan) -> FaultPlane {
        FaultPlane {
            rng: StdRng::seed_from_u64(plan.seed),
            stats: FaultStats::default(),
            plan,
        }
    }

    /// Decide the fate of one transmission from `node` out of `port` at
    /// `now`. Draws from the PRNG in a fixed order (loss, corruption,
    /// duplication, jitter per copy) so the decision stream is a pure
    /// function of the seed and the call sequence.
    pub fn data_fate(&mut self, node: NodeId, port: u64, now: SimTime) -> TxFate {
        if let Some(windows) = self.plan.link_down.get(&(node, port)) {
            if windows.iter().any(|w| w.contains(now)) {
                self.stats.link_down_drops += 1;
                return TxFate::LinkDown;
            }
        }
        let f = self.plan.default_link;
        if f.is_quiet() {
            return TxFate::Deliver {
                extra: 0,
                duplicate_extra: None,
                corrupt: false,
            };
        }
        if f.loss > 0.0 && self.rng.gen_bool(f.loss) {
            self.stats.data_lost += 1;
            return TxFate::Lost;
        }
        let corrupt = f.corrupt > 0.0 && self.rng.gen_bool(f.corrupt);
        if corrupt {
            self.stats.data_corrupted += 1;
        }
        let duplicate = f.duplicate > 0.0 && self.rng.gen_bool(f.duplicate);
        if duplicate {
            self.stats.data_duplicated += 1;
        }
        let mut jitter = || {
            if f.reorder_jitter_ns == 0 {
                0
            } else {
                self.rng.gen_range(0..=f.reorder_jitter_ns)
            }
        };
        TxFate::Deliver {
            extra: jitter(),
            duplicate_extra: duplicate.then(jitter),
            corrupt,
        }
    }

    /// Flip one byte of `bytes` in place (the corruption fault).
    pub fn corrupt_bytes(&mut self, bytes: &mut [u8]) {
        if bytes.is_empty() {
            return;
        }
        let i = self.rng.gen_range(0..bytes.len());
        bytes[i] ^= 0xFF;
    }

    /// Is `node` inside one of its outage windows at `now`? Counts the
    /// drop when it is.
    pub fn switch_down_drop(&mut self, node: NodeId, now: SimTime) -> bool {
        let down = self
            .plan
            .switch_down
            .get(&node)
            .is_some_and(|ws| ws.iter().any(|w| w.contains(now)));
        if down {
            self.stats.switch_down_drops += 1;
        }
        down
    }

    /// Resolve one control-channel push sent at `now` with one-way
    /// latency `latency`: returns the delivery time of the first copy
    /// that survives loss, or `None` when the retry budget runs dry.
    pub fn control_delivery_time(&mut self, now: SimTime, latency: SimTime) -> Option<SimTime> {
        let p = self.plan.control_loss;
        if p == 0.0 {
            return Some(now + latency);
        }
        let retry = self.plan.control_retry;
        let mut send_at = now;
        let mut timeout = retry.base_timeout_ns;
        for attempt in 0..=retry.max_retries {
            if !self.rng.gen_bool(p) {
                return Some(send_at + latency);
            }
            self.stats.control_lost += 1;
            if attempt < retry.max_retries {
                self.stats.control_retransmits += 1;
                send_at += timeout;
                timeout = timeout.saturating_mul(retry.backoff as u64);
            }
        }
        self.stats.control_gave_up += 1;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_never_perturbs() {
        let mut plane = FaultPlane::new(FaultPlan::new(7));
        for t in 0..100 {
            assert_eq!(
                plane.data_fate(0, 1, t),
                TxFate::Deliver {
                    extra: 0,
                    duplicate_extra: None,
                    corrupt: false
                }
            );
            assert_eq!(plane.control_delivery_time(t, 10), Some(t + 10));
            assert!(!plane.switch_down_drop(0, t));
        }
        assert_eq!(plane.stats, FaultStats::default());
    }

    #[test]
    fn same_seed_same_decision_stream() {
        let plan = FaultPlan::new(42).with_default_link(LinkFaults {
            loss: 0.2,
            duplicate: 0.1,
            corrupt: 0.1,
            reorder_jitter_ns: 500,
        });
        let mut a = FaultPlane::new(plan.clone());
        let mut b = FaultPlane::new(plan);
        for t in 0..1000 {
            assert_eq!(a.data_fate(1, 1, t), b.data_fate(1, 1, t));
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.data_lost > 0, "p=0.2 over 1000 draws must lose");
    }

    #[test]
    fn down_windows_are_half_open() {
        let plan = FaultPlan::new(1)
            .with_link_down(3, 1, 100, 200)
            .with_switch_down(5, 50, 60);
        let mut plane = FaultPlane::new(plan);
        assert_eq!(
            plane.data_fate(3, 1, 99),
            TxFate::Deliver {
                extra: 0,
                duplicate_extra: None,
                corrupt: false
            }
        );
        assert_eq!(plane.data_fate(3, 1, 100), TxFate::LinkDown);
        assert_eq!(plane.data_fate(3, 1, 199), TxFate::LinkDown);
        assert!(!matches!(plane.data_fate(3, 1, 200), TxFate::LinkDown));
        assert!(!plane.switch_down_drop(5, 49));
        assert!(plane.switch_down_drop(5, 50));
        assert!(!plane.switch_down_drop(5, 60));
        assert_eq!(plane.stats.link_down_drops, 2);
        assert_eq!(plane.stats.switch_down_drops, 1);
    }

    #[test]
    fn control_retries_recover_most_losses() {
        // With 10% loss and 3 retries, P(all four attempts lost) = 1e-4:
        // across 10k pushes virtually everything is delivered.
        let plan = FaultPlan::new(9).with_control_loss(0.10);
        let mut plane = FaultPlane::new(plan);
        let mut delivered = 0u64;
        for i in 0..10_000u64 {
            if plane.control_delivery_time(i * 1000, 10).is_some() {
                delivered += 1;
            }
        }
        assert!(delivered >= 9_990, "delivered only {delivered}/10000");
        assert!(plane.stats.control_retransmits > 0);
        assert_eq!(
            plane.stats.control_gave_up,
            10_000 - delivered,
            "every non-delivery is an exhausted budget"
        );
    }

    #[test]
    fn no_retry_baseline_drops_at_loss_rate() {
        let plan = FaultPlan::new(9)
            .with_control_loss(0.10)
            .with_control_retry(ControlRetryPolicy::none());
        let mut plane = FaultPlane::new(plan);
        let mut delivered = 0u64;
        for i in 0..10_000u64 {
            if plane.control_delivery_time(i * 1000, 10).is_some() {
                delivered += 1;
            }
        }
        // Fire-and-forget delivers ≈ 90%.
        assert!((8_800..9_200).contains(&delivered), "{delivered}/10000");
        assert_eq!(plane.stats.control_retransmits, 0);
    }

    #[test]
    fn backoff_grows_exponentially() {
        // Force three consecutive losses, then a success, and check the
        // delivery time reflects base·(1 + backoff + backoff²) waiting.
        let retry = ControlRetryPolicy {
            max_retries: 3,
            base_timeout_ns: 100,
            backoff: 2,
        };
        // Find a seed whose first three draws at p=0.999 lose and
        // fourth succeeds is impractical; instead use p=1 with budget 3
        // to check give-up, and p=0 to check the fast path.
        let mut always = FaultPlane::new(
            FaultPlan::new(3)
                .with_control_loss(1.0)
                .with_control_retry(retry),
        );
        assert_eq!(always.control_delivery_time(0, 10), None);
        assert_eq!(always.stats.control_lost, 4, "1 try + 3 retries");
        assert_eq!(always.stats.control_retransmits, 3);
        assert_eq!(always.stats.control_gave_up, 1);
        let mut never = FaultPlane::new(FaultPlan::new(3).with_control_retry(retry));
        assert_eq!(never.control_delivery_time(50, 10), Some(60));
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let plan = FaultPlan::new(2);
        let mut plane = FaultPlane::new(plan);
        let original = vec![0xAAu8; 64];
        let mut copy = original.clone();
        plane.corrupt_bytes(&mut copy);
        let diffs = original.iter().zip(&copy).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        plane.corrupt_bytes(&mut []);
    }
}
