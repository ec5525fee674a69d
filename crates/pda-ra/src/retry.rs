//! Timeout/retry with exponential backoff for `@P` message legs.
//!
//! The executable protocol evaluator in [`crate::protocol`] assumed a
//! perfect transport: every `@P` request and reply arrived. Petz &
//! Alexander's "Faithful Execution of Remote Attestation Protocols"
//! stresses that protocol *execution* must survive a hostile
//! environment, not just verify in a clean one — so this module models
//! the transport explicitly. A [`FlakyChannel`] (seeded, deterministic)
//! decides whether each leg is delivered; a [`RetrySession`] wraps it
//! with a [`RetryPolicy`] that retransmits lost legs after an
//! exponentially backed-off timeout, until the budget is exhausted and
//! the run fails with [`ProtocolError::Timeout`].
//!
//! Retransmissions are counted once, in the run's books:
//! [`RunStats::retries`] / [`RunStats::backoff_ns`] and the extra
//! `messages`/`bytes` each retransmitted leg accounts. When a handle is
//! attached, each run publishes the `ra.retry.*` telemetry counters
//! (`legs`, `retransmits`, `timeouts`) derived from those books.
//!
//! Request-leg loss retries *before* the remote phrase runs; reply-leg
//! loss re-sends the already-computed reply without re-executing the
//! remote phrase — the model's legs are idempotent the way a real
//! store-and-retransmit buffer makes them.

use crate::protocol::{ProtocolError, RunStats};
use pda_copland::ast::Place;
use pda_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One run's books: its stats, and whether it ended in a timeout.
type Books = (RunStats, bool);

/// Reads one entry of the books.
type BookEntry = fn(&Books) -> u64;

/// Each `ra.retry.*` registry counter and the book entry it publishes.
const PUBLISHED: [(&str, BookEntry); 3] = [
    // Every leg accounts one message, every retransmission one more.
    ("ra.retry.legs", |(s, _)| s.messages - s.retries),
    ("ra.retry.retransmits", |(s, _)| s.retries),
    ("ra.retry.timeouts", |&(_, timed_out)| u64::from(timed_out)),
];

/// Retransmit budget and backoff shape for one protocol run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed per leg after the first attempt
    /// (0 = fire-and-forget: any loss is an immediate timeout).
    pub max_retries: u32,
    /// Timeout before the first retransmit, in nanoseconds.
    pub base_timeout_ns: u64,
    /// Timeout multiplier per successive retransmit.
    pub backoff: u32,
    /// Deterministic jitter amplitude in percent (0 = none): each wait
    /// is scaled by a seeded factor in `[100-j, 100+j]%` so a fleet of
    /// federated clients sharing one policy doesn't retransmit in
    /// lockstep after a correlated loss burst. The backoff *base* keeps
    /// growing un-jittered, so jitter never compounds across attempts.
    pub jitter_pct: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_timeout_ns: 1_000_000, // 1 ms
            backoff: 2,
            jitter_pct: 0,
        }
    }
}

impl RetryPolicy {
    /// The no-retry baseline.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// Builder: enable backoff jitter with amplitude `pct` (clamped to
    /// 100 — a wait can shrink to zero but never go negative).
    pub fn with_jitter(mut self, pct: u32) -> RetryPolicy {
        self.jitter_pct = pct.min(100);
        self
    }
}

/// A deterministic lossy message channel: each leg is independently
/// lost with probability `loss`, decided by a seeded PRNG.
#[derive(Clone, Debug)]
pub struct FlakyChannel {
    loss: f64,
    rng: StdRng,
}

impl FlakyChannel {
    /// Channel losing each leg with probability `loss` under `seed`.
    pub fn new(seed: u64, loss: f64) -> FlakyChannel {
        assert!((0.0..=1.0).contains(&loss), "loss={loss} not a probability");
        FlakyChannel {
            loss,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A channel that never loses anything.
    pub fn perfect() -> FlakyChannel {
        FlakyChannel::new(0, 0.0)
    }

    /// Sample one transmission attempt.
    pub fn delivers(&mut self) -> bool {
        self.loss == 0.0 || !self.rng.gen_bool(self.loss)
    }
}

/// The retry layer threaded through one protocol run.
#[derive(Clone)]
pub struct RetrySession {
    /// Budget and backoff shape.
    pub policy: RetryPolicy,
    /// The transport model.
    pub channel: FlakyChannel,
    /// Optional telemetry for `ra.retry.*` counters.
    pub telemetry: Telemetry,
    /// Optional causal trace context: when set (and telemetry is
    /// enabled), every retransmission and timeout is emitted as a
    /// trace-stamped instant event, making channel backoff visible in
    /// the flight recorder's per-trace timeline.
    pub trace: Option<pda_telemetry::TraceCtx>,
    /// Dedicated PRNG for backoff jitter. Kept separate from the
    /// channel's loss PRNG so enabling jitter never perturbs the
    /// delivery decision stream of an existing seed.
    jitter_rng: StdRng,
}

impl std::fmt::Debug for RetrySession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetrySession")
            .field("policy", &self.policy)
            .field("channel", &self.channel)
            .finish_non_exhaustive()
    }
}

impl RetrySession {
    /// Session over `channel` with `policy`; telemetry off, jitter
    /// seeded at 0 (override with [`RetrySession::with_jitter_seed`] to
    /// desynchronize clients sharing a policy).
    pub fn new(policy: RetryPolicy, channel: FlakyChannel) -> RetrySession {
        RetrySession {
            policy,
            channel,
            telemetry: Telemetry::off(),
            trace: None,
            jitter_rng: StdRng::seed_from_u64(0),
        }
    }

    /// Attach a telemetry handle.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> RetrySession {
        self.telemetry = telemetry;
        self
    }

    /// Attach a trace context; see the `trace` field.
    pub fn with_trace(mut self, ctx: pda_telemetry::TraceCtx) -> RetrySession {
        self.trace = Some(ctx);
        self
    }

    /// Re-seed the jitter PRNG: same seed, same backoff waits — the
    /// seed-stability contract federated clients rely on.
    pub fn with_jitter_seed(mut self, seed: u64) -> RetrySession {
        self.jitter_rng = StdRng::seed_from_u64(seed);
        self
    }

    /// Add one run's books to the `ra.retry.*` counters — the only
    /// place this session writes them.
    pub(crate) fn publish(&self, books: Books) {
        if let Some(reg) = self.telemetry.registry() {
            for (name, read) in PUBLISHED {
                let n = read(&books);
                if n > 0 {
                    reg.counter(name).add(n);
                }
            }
        }
    }

    /// Emit a trace-stamped retry event (only when both telemetry and
    /// a trace context are attached).
    fn trace_event(&self, name: &str, place: &Place, extra: &[(&str, u64)]) {
        if !self.telemetry.enabled() {
            return;
        }
        if let Some(ctx) = &self.trace {
            let mut fields = ctx.fields();
            fields.push(("place".to_string(), format!("{place}").into()));
            for (k, v) in extra {
                fields.push((k.to_string(), (*v).into()));
            }
            self.telemetry.event(name, fields);
        }
    }

    /// Drive one message leg of `bytes` bytes toward `place`:
    /// retransmit on loss with exponential backoff until delivered or
    /// the budget is spent. Every retransmission accounts an extra
    /// message carrying the same bytes.
    pub(crate) fn leg(
        &mut self,
        place: &Place,
        bytes: u64,
        stats: &mut RunStats,
    ) -> Result<(), ProtocolError> {
        let mut timeout = self.policy.base_timeout_ns;
        for attempt in 0..=self.policy.max_retries {
            if self.channel.delivers() {
                return Ok(());
            }
            if attempt == self.policy.max_retries {
                break;
            }
            let wait = if self.policy.jitter_pct == 0 {
                timeout
            } else {
                let j = u64::from(self.policy.jitter_pct.min(100));
                let pct: u64 = self.jitter_rng.gen_range(100 - j..=100 + j);
                (timeout / 100).saturating_mul(pct) + (timeout % 100) * pct / 100
            };
            stats.retries += 1;
            stats.backoff_ns += wait;
            stats.messages += 1;
            stats.bytes += bytes;
            self.trace_event(
                "ra.retry.backoff",
                place,
                &[("attempt", u64::from(attempt) + 1), ("wait_ns", wait)],
            );
            timeout = timeout.saturating_mul(self.policy.backoff as u64);
        }
        self.trace_event(
            "ra.retry.timeout",
            place,
            &[("attempts", u64::from(self.policy.max_retries) + 1)],
        );
        Err(ProtocolError::Timeout(place.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::run_request_retrying;
    use crate::protocol::tests::bank_env;
    use pda_copland::ast::examples;

    fn place(n: &str) -> Place {
        n.into()
    }

    #[test]
    fn perfect_channel_never_retries() {
        let mut s = RetrySession::new(RetryPolicy::default(), FlakyChannel::perfect());
        let mut stats = RunStats::default();
        for _ in 0..100 {
            s.leg(&place("p"), 64, &mut stats).unwrap();
        }
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.messages, 0, "no retransmits, no extra messages");
    }

    #[test]
    fn retries_recover_then_budget_exhausts() {
        // p = 1: every attempt lost; budget 2 → 2 retransmits, then fail.
        let mut s = RetrySession::new(
            RetryPolicy {
                max_retries: 2,
                base_timeout_ns: 100,
                backoff: 3,
                jitter_pct: 0,
            },
            FlakyChannel::new(7, 1.0),
        );
        let mut stats = RunStats::default();
        let err = s.leg(&place("q"), 10, &mut stats).unwrap_err();
        assert_eq!(err, ProtocolError::Timeout(place("q")));
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.backoff_ns, 100 + 300, "exponential backoff");
        assert_eq!((stats.messages, stats.bytes), (2, 20));
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = || {
            let mut s = RetrySession::new(RetryPolicy::default(), FlakyChannel::new(42, 0.3));
            let mut stats = RunStats::default();
            let mut failures = 0u64;
            for _ in 0..200 {
                if s.leg(&place("p"), 8, &mut stats).is_err() {
                    failures += 1;
                }
            }
            (stats, failures)
        };
        let (s1, f1) = run();
        let (s2, f2) = run();
        assert_eq!((s1, f1), (s2, f2), "same seed, same decision stream");
        assert!(s1.retries > 0, "p=0.3 over 200 legs must retransmit");
    }

    #[test]
    fn jitter_waits_are_seed_stable_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 2,
            base_timeout_ns: 1_000,
            backoff: 3,
            jitter_pct: 20,
        };
        let run = |seed: u64| {
            // p = 1: both retransmits fire, then the leg times out.
            let mut s = RetrySession::new(policy, FlakyChannel::new(7, 1.0)).with_jitter_seed(seed);
            let mut stats = RunStats::default();
            s.leg(&place("q"), 10, &mut stats).unwrap_err();
            stats
        };
        let a = run(1);
        assert_eq!(a, run(1), "same jitter seed, same backoff_ns");
        // RunStats threading is unchanged: retries/messages/bytes still
        // account every retransmission.
        assert_eq!((a.retries, a.messages, a.bytes), (2, 2, 20));
        // Each wait stays within ±20% of its un-jittered value
        // (1000 then 3000 → total in [3200, 4800]).
        assert!(
            (3_200..=4_800).contains(&a.backoff_ns),
            "backoff_ns={} outside jitter envelope",
            a.backoff_ns
        );
        // Different seeds desynchronize: some pair of the fleet differs.
        let totals: Vec<u64> = (0..8).map(|s| run(s).backoff_ns).collect();
        assert!(
            totals.iter().any(|t| *t != totals[0]),
            "8 seeds all landed on {}: jitter is not desynchronizing",
            totals[0]
        );
    }

    #[test]
    fn zero_jitter_keeps_exact_exponential_waits() {
        // jitter_pct = 0 must not draw from the jitter PRNG at all:
        // waits match the pre-jitter arithmetic exactly.
        let mut s = RetrySession::new(
            RetryPolicy::default().with_jitter(0),
            FlakyChannel::new(7, 1.0),
        );
        let mut stats = RunStats::default();
        s.leg(&place("q"), 1, &mut stats).unwrap_err();
        assert_eq!(stats.backoff_ns, 1_000_000 + 2_000_000 + 4_000_000);
    }

    /// One `bank_eq2` run: two `@P` hops, so four legs.
    fn run(s: &mut RetrySession) -> Result<crate::RunReport, ProtocolError> {
        run_request_retrying(&examples::bank_eq2(), &mut bank_env(), None, s)
    }

    #[test]
    fn telemetry_counters_track_legs() {
        let tel = Telemetry::collecting();
        let mut s = RetrySession::new(RetryPolicy::none(), FlakyChannel::new(5, 0.5))
            .with_telemetry(tel.clone());
        let reg = tel.registry().unwrap();
        let legs = || reg.counter("ra.retry.legs").get();
        let mut timeouts = 0u64;
        for _ in 0..50 {
            let before = legs();
            match run(&mut s) {
                Ok(report) => assert_eq!(legs() - before, report.stats.messages),
                Err(err) => {
                    assert!(matches!(err, ProtocolError::Timeout(_)), "{err}");
                    assert!(legs() > before, "the lost leg is counted");
                    timeouts += 1;
                }
            }
        }
        assert_eq!(reg.counter("ra.retry.timeouts").get(), timeouts);
        assert_eq!(reg.counter("ra.retry.retransmits").get(), 0);
        assert!(timeouts > 0, "p=0.5 with no budget must time out");
    }

    #[test]
    fn retry_counters_derive_from_run_stats() {
        // A lossy run that completes.
        let tel = Telemetry::collecting();
        let mut s = RetrySession::new(RetryPolicy::default(), FlakyChannel::new(11, 0.3))
            .with_telemetry(tel.clone());
        let stats = run(&mut s).expect("the budget absorbs p=0.3").stats;
        assert!(stats.retries > 0, "p=0.3 over four legs retransmits");
        let reg = tel.registry().unwrap();
        let counter = |name: &str| reg.counter(name).get();
        assert_eq!(counter("ra.retry.legs"), stats.messages - stats.retries);
        assert_eq!(counter("ra.retry.legs"), 4);
        assert_eq!(counter("ra.retry.retransmits"), stats.retries);
        assert_eq!(counter("ra.retry.timeouts"), 0);

        // A run whose first leg is lost three times: two retransmits,
        // then the timeout.
        let tel = Telemetry::collecting();
        let policy = RetryPolicy {
            max_retries: 2,
            ..RetryPolicy::default()
        };
        let mut s =
            RetrySession::new(policy, FlakyChannel::new(7, 1.0)).with_telemetry(tel.clone());
        let err = run(&mut s).unwrap_err();
        assert!(matches!(err, ProtocolError::Timeout(_)), "{err}");
        let reg = tel.registry().unwrap();
        let counter = |name: &str| reg.counter(name).get();
        assert_eq!(counter("ra.retry.legs"), 1);
        assert_eq!(counter("ra.retry.retransmits"), 2);
        assert_eq!(counter("ra.retry.timeouts"), 1);
    }
}
