//! E9 / UC3: cost of the evidence gate — `appraise_chain` over the
//! chain a packet carries — on its admit and reject paths.

use criterion::{criterion_group, criterion_main, Criterion};
use pda_core::prelude::*;
use std::hint::black_box;

fn bench_gate(c: &mut Criterion) {
    let config = PeraConfig::default().with_sampling(Sampling::PerPacket);
    let mut net = linear_path(3, &config, &[]);
    let golden = enroll_golden(&net.sim, &[DetailLevel::Hardware, DetailLevel::Program]);
    net.send_attested(Nonce(1), EvidenceMode::InBand, b"payload!");
    let chain = net.server_chains()[0].chain.clone();
    let registry = net.sim.registry;
    let admit = |nonce| appraise_chain(&chain, &registry, &golden, nonce, true).is_ok();

    c.bench_function("uc3_gate_admit_valid_chain", |b| {
        b.iter(|| black_box(admit(Nonce(1))))
    });
    // Bare packets carry nothing to appraise; the reject path that
    // costs something is evidence replayed under a new nonce.
    c.bench_function("uc3_gate_reject_replayed_chain", |b| {
        b.iter(|| black_box(admit(Nonce(2))))
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(700))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_gate
}
criterion_main!(benches);
