//! `pda-svc`: the long-running attestation appraisal service.
//!
//! The paper frames remote attestation of programmable dataplanes as a
//! *continuous* obligation: switches churn — programs reload, devices
//! restart, links flap — and a verdict is only as good as its
//! freshness. This crate turns the repo's one-shot appraisal machinery
//! into a service built for that regime:
//!
//! * **Runtime** ([`runtime`]): a dependency-free mini-server — std
//!   `TcpListener`, a hand-rolled worker pool, graceful shutdown — in
//!   keeping with this workspace's no-external-crates constraint.
//!   Connections are persistent (HTTP/1.1 keep-alive with
//!   pipelining, per-connection request cap, idle timeout, closed
//!   when a request asks), and [`SvcClient`] pools its side of them,
//!   so the sustained small-RPC stream of continuous attestation pays
//!   per-call work, not per-call TCP setup.
//! * **API** ([`http`], [`rpc`], [`service`]): JSON-RPC 2.0 over HTTP
//!   (`submit-evidence`, `appraise`, `query-audit-log`, `metrics`,
//!   `health`, `shutdown`), plus plain GET `/metrics` (Prometheus
//!   text) and `/health`. Both parsers are hardened: no input bytes
//!   can panic them.
//! * **Federation** ([`federation`]): N appraisers, each with its own
//!   golden store and key registry, independently run the full
//!   `pda_ra` appraisal; a quorum rule (majority / unanimous / k-of-n)
//!   combines the verdicts, out-voting a faulty or corrupted member
//!   whose dissent stays attributable in the audit log.
//! * **Churn** ([`churn`]): a driver coupling the service to
//!   `pda-netsim`'s fault plane — restarts, lossy links, control-loss
//!   with retries, switch-down windows, rogue program reloads —
//!   streaming continuous attestation through the live API (E18).

pub mod churn;
pub mod client;
pub mod federation;
pub mod fleet;
pub mod http;
pub mod rpc;
pub mod runtime;
pub mod service;

pub use churn::{rogue_reload, run_churn, ChurnConfig, ChurnReport};
pub use client::SvcClient;
pub use federation::{Appraiser, Federation, Quorum, QuorumVerdict};
pub use runtime::{serve, serve_with, Handler, ServeOptions, ServerHandle};
pub use service::{AppraisalService, SvcConfig};
