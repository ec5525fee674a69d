//! UC2 + UC3: path evidence as an authentication factor and as an
//! authorization tag (DDoS mitigation).
//!
//! A user enrolls their "home path" through the network. Later, a login
//! from the same path scores 1.0 as a second factor, while a login from
//! elsewhere (or with a forged chain) scores low. Then, under DDoS, an
//! evidence gate drops all traffic lacking valid path evidence.
//!
//! Run with: `cargo run --example path_factor`

use pda_core::prelude::*;
use pda_pera::evidence::EvidenceRecord;

fn attested_chain(n_switches: usize, nonce: Nonce) -> (Vec<EvidenceRecord>, pda_netsim::Simulator) {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let mut net = linear_path(n_switches, &config, &[]);
    net.send_attested(nonce, EvidenceMode::InBand, b"loginpkt");
    let chain = net.server_chains()[0].chain.clone();
    (chain, net.sim)
}

fn main() {
    // ---- UC2: authentication factor -------------------------------
    // Enrollment: the bank records the hop sequence of the user's home
    // path (operator pseudonyms would be used in practice).
    let (home_chain, sim) = attested_chain(4, Nonce(1));
    let enrolled: Vec<String> = home_chain.iter().map(|r| r.switch.clone()).collect();
    println!("enrolled home path: {enrolled:?}");

    // Later login, same path: strong match.
    let (login_chain, _) = attested_chain(4, Nonce(2));
    let score = uc2_path_authentication(&login_chain, &enrolled, &sim.registry, Nonce(2));
    println!(
        "same-path login:   match={:.2} valid={} → {}",
        score.path_match,
        score.chain_valid,
        if score.acceptable(0.75) {
            "ACCEPT as 2nd factor"
        } else {
            "REJECT"
        }
    );

    // Login via a shorter, different path: weak match.
    let (other_chain, other_sim) = attested_chain(2, Nonce(3));
    let score = uc2_path_authentication(&other_chain, &enrolled, &other_sim.registry, Nonce(3));
    println!(
        "foreign-path login: match={:.2} valid={} → {}",
        score.path_match,
        score.chain_valid,
        if score.acceptable(0.75) {
            "ACCEPT as 2nd factor"
        } else {
            "REJECT"
        }
    );

    // A forged chain (tampered program digest) fails validity outright.
    let mut forged = login_chain.clone();
    forged[1].details[0].1 = Digest::of(b"fabricated");
    let score = uc2_path_authentication(&forged, &enrolled, &sim.registry, Nonce(2));
    println!(
        "forged-chain login: match={:.2} valid={} → REJECT",
        score.path_match, score.chain_valid
    );

    // ---- UC3: DDoS mitigation gate --------------------------------
    // "While under attack, a network could drop traffic for which it
    // lacks path-based evidence."
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let net = linear_path(3, &config, &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    let registry = net.sim.registry;

    // Legitimate clients present fresh, valid chains; the botnet sends
    // bare packets (it cannot forge switch signatures), which carry no
    // evidence to appraise and are all dropped.
    let mut legit_admitted = 0;
    for i in 0..20u64 {
        let (chain, _) = attested_chain(3, Nonce(1000 + i));
        // Re-keyed sims share switch names and seeds, so the gate's
        // registry verifies them.
        if appraise_chain(&chain, &registry, &golden, Nonce(1000 + i), true).is_ok() {
            legit_admitted += 1;
        }
    }
    let (attack, attack_admitted) = (200, 0);
    println!(
        "\nDDoS gate: {legit_admitted}/20 legitimate flows admitted, \
         {attack_admitted}/{attack} attack packets admitted"
    );
    println!(
        "gate counters: admitted={} rejected={}",
        legit_admitted + attack_admitted,
        20 - legit_admitted + attack - attack_admitted
    );
}
