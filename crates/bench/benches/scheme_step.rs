//! Whole-scheme benchmarks: one uniform P-RAM step per iteration
//! (experiments E4, E5, E8, E11 — the per-table regeneration is in the
//! `repro` binary; these measure the simulator's own speed).
//!
//! The whole zoo is driven through `Box<dyn Scheme>`: adding a scheme to
//! [`SchemeKind::ALL`] adds its benchmark.

use cr_core::{SchemeKind, SimBuilder};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use simrng::rng_from_seed;

fn step_inputs(n: usize, m: usize, seed: u64) -> (Vec<usize>, Vec<(usize, i64)>) {
    let mut rng = rng_from_seed(seed);
    let p = workloads::uniform(n, m, 0.3, &mut rng);
    (p.reads, p.writes)
}

fn bench_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheme_step");
    g.sample_size(20);

    for (i, kind) in SchemeKind::ALL.into_iter().enumerate() {
        // The cycle-level 2DMOT schemes route every packet through the
        // mesh; keep their instances small enough to iterate.
        let n = match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => 16,
            _ => 64,
        };
        let m = n * n;
        let mut scheme = SimBuilder::new(n, m)
            .kind(kind)
            .build()
            .expect("default regimes are feasible");
        g.bench_function(format!("{}_n{n}", kind.name()), |bch| {
            bch.iter_batched(
                || step_inputs(n, m, 11 + i as u64),
                |(r, w)| scheme.access(&r, &w),
                BatchSize::SmallInput,
            )
        });
    }

    // HP-DMMPC at the `dmmpc-uniform` workload's size (c = 6, r = 11:
    // 11,264 copy attempts per full step), so the protocol's per-step
    // cost at scale has a number of its own.
    let (n, m) = (1024, 4096);
    let mut scheme = SimBuilder::new(n, m)
        .kind(SchemeKind::HpDmmpc)
        .build()
        .expect("default regimes are feasible");
    g.bench_function(format!("{}_n{n}", SchemeKind::HpDmmpc.name()), |bch| {
        bch.iter_batched(
            || step_inputs(n, m, 17),
            |(r, w)| scheme.access(&r, &w),
            BatchSize::SmallInput,
        )
    });

    g.finish();
}

criterion_group!(benches, bench_schemes);
criterion_main!(benches);
