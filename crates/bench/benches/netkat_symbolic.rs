//! Symbolic vs enumerative NetKAT verification on fabrics (experiment
//! E19's criterion slice).
//!
//! Fabric sizes 4 / 64 / 1024: the enumerative oracle is exercised only
//! where feasible (its finite model is cubic in the switch count here);
//! the symbolic backend runs at every size — the thousand-switch case is
//! the acceptance bar for the decision procedure. The per-query rows at
//! 64 (the `verify` benchmark's fabric) and 1024 leaves time reach and
//! the verified slice of a leaf, whose guard prunes the spine's dispatch,
//! and of the spine, where nothing can be pruned.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pda_netkat::ast::{Field, Packet, Pred};
use pda_netkat::corpus::{fabric_step, fabric_step_redundant};
use pda_netkat::equiv::{equivalent_with, Backend};
use pda_netkat::reach::can_reach;
use pda_netkat::specialize::verified_slice_for_switch;
use std::collections::BTreeSet;
use std::hint::black_box;

/// Enumerative equivalence above this size takes minutes per iteration.
const ENUM_FEASIBLE: u32 = 64;

fn bench_fabric_equiv(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_symbolic");
    for n in [4u32, 64, 1024] {
        let p = fabric_step(n);
        let q = fabric_step_redundant(n);
        g.bench_with_input(BenchmarkId::new("sym_equiv", n), &(), |b, ()| {
            b.iter(|| black_box(equivalent_with(Backend::Symbolic, &p, &q)))
        });
        if n <= ENUM_FEASIBLE {
            g.bench_with_input(BenchmarkId::new("enum_equiv", n), &(), |b, ()| {
                b.iter(|| black_box(equivalent_with(Backend::Enumerative, &p, &q)))
            });
        }
    }
    g.finish();
}

fn bench_fabric_queries(c: &mut Criterion) {
    let mut g = c.benchmark_group("netkat_symbolic");
    for n in [64u32, 1024] {
        let p = fabric_step(n);
        let init = BTreeSet::from([Packet::of(&[
            (Field::Switch, 1),
            (Field::Port, 2),
            (Field::Dst, n),
        ])]);
        let goal = Pred::test(Field::Switch, n);
        g.bench_with_input(BenchmarkId::new("sym_reach", n), &(), |b, ()| {
            b.iter(|| black_box(can_reach(&p, &init, &goal)))
        });
        for (row, sw) in [("slice_leaf", 1), ("slice_spine", 0)] {
            g.bench_with_input(BenchmarkId::new(row, n), &(), |b, ()| {
                b.iter(|| black_box(verified_slice_for_switch(&p, sw)))
            });
        }
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(200))
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_fabric_equiv, bench_fabric_queries
}
criterion_main!(benches);
