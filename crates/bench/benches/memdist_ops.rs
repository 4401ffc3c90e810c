//! Benchmarks for memory-map generation, expansion checking, and the
//! replicated store (experiment E2's machinery).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memdist::{check_sampled, min_live_spread_greedy, MemoryMap, ReplicatedStore};
use simrng::rng_from_seed;

fn bench_maps(c: &mut Criterion) {
    let mut g = c.benchmark_group("memdist");
    g.sample_size(20);
    g.bench_function("map_random_m4096_r7", |bch| {
        bch.iter(|| MemoryMap::random(4096, 512, 7, black_box(1)))
    });

    let map = MemoryMap::random(4096, 512, 7, 1);
    let vars: Vec<usize> = (0..9).map(|i| i * 31).collect();
    g.bench_function("greedy_spread_q9", |bch| {
        bch.iter(|| min_live_spread_greedy(&map, black_box(&vars), 4))
    });

    g.bench_function("check_sampled_20", |bch| {
        let mut rng = rng_from_seed(2);
        bch.iter(|| check_sampled(&map, 4, 4, 9, 20, &mut rng))
    });
    g.finish();
}

fn bench_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("replicated_store");
    let map = MemoryMap::random(4096, 512, 7, 1);
    let mut store = ReplicatedStore::new(&map);
    let quorum = [0usize, 2, 4, 6];
    g.bench_function("write_quorum_c4", |bch| {
        let mut ts = 0u64;
        bch.iter(|| {
            ts += 1;
            store.write_quorum(black_box(17), quorum, 42, ts)
        })
    });
    g.bench_function("read_majority_c4", |bch| {
        bch.iter(|| store.read_majority(black_box(17), quorum))
    });
    g.finish();
}

criterion_group!(benches, bench_maps, bench_store);
criterion_main!(benches);
