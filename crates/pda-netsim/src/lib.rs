//! # pda-netsim
//!
//! A deterministic discrete-event network simulator — the testbed
//! substrate on which the paper's PERA switches, legacy (non-attesting)
//! elements, hosts, and appraisers are composed into networks and the
//! use-case experiments are run.
//!
//! * [`topology`] — nodes, devices, latency-weighted links.
//! * [`packet`] — simulated packets carrying the §5.2 attestation
//!   options (nonce, in-band evidence chain, or out-of-band collector).
//! * [`sim`] — the event engine: packets hop link by link; PERA devices
//!   attest per their Fig.-4 configuration; out-of-band evidence flows
//!   over a control channel to the appraiser.
//! * [`scenarios`] — reusable topology builders (linear paths with
//!   PERA/legacy mixes) and traffic helpers.
//! * [`faults`] — the seeded, deterministic fault-injection plane:
//!   per-link loss/duplication/corruption/jitter, link- and
//!   switch-down windows, lossy control channel with retransmits.

pub mod ddos;
pub mod faults;
pub mod packet;
pub mod scenarios;
pub mod sim;
pub mod topology;
pub mod traffic;

pub use ddos::{DdosOutcome, DdosScenario};
pub use faults::{
    ControlRetryPolicy, DownWindow, FaultPlan, FaultPlane, FaultStats, LinkFaults, TxFate,
};
pub use packet::{AttestState, EvidenceMode, SimPacket};
pub use scenarios::{linear_path, linear_path_bw, test_packet, LinearPath};
pub use sim::{enroll_golden, Delivery, SimStats, Simulator, CONTROL_LATENCY, MAX_HOPS};
pub use topology::{DeviceKind, Node, NodeId, SimTime, Topology};
