//! Benchmarks for 2DMOT routing throughput and the native tree primitives
//! (experiments E5, E12).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkGroup, Criterion};
use mot::{primitives, BatchBuffers, MotNetwork, MotRequest, MotTopology};

/// Route the same batch every iteration through reused request and result
/// buffers (`route_batch_into`), so a sample times routing, not `Vec`
/// allocation.
fn bench_batch(
    g: &mut BenchmarkGroup<'_>,
    name: String,
    side: usize,
    template: Vec<MotRequest<usize>>,
    col_limit: usize,
) {
    let mut net: MotNetwork<usize> = MotNetwork::new(side);
    let mut reqs = Vec::with_capacity(template.len());
    let mut out = BatchBuffers::new();
    g.bench_function(name, |bch| {
        bch.iter(|| {
            reqs.extend(template.iter().cloned());
            net.route_batch_into(black_box(&mut reqs), col_limit, |_, _, _| {}, &mut out)
        })
    });
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("mot_routing");
    g.sample_size(20);
    for side in [16usize, 64] {
        let reqs = (0..16)
            .map(|i| MotRequest {
                to_root: false,
                src_root: (i * 3) % side,
                row: (i * 5) % side,
                col: (i * 7) % side,
                payload: i,
            })
            .collect();
        bench_batch(&mut g, format!("batch16_side{side}"), side, reqs, 4);
    }
    // One `2dmot-hotspot` phase: 11 requests from 16 processors on a
    // side-64 mesh, a hot column among them, collision-kill admission.
    let side = 64;
    let reqs = (0..11)
        .map(|i| MotRequest {
            to_root: false,
            src_root: (i * 5) % 16,
            row: (i * 13) % side,
            col: if i % 3 == 0 { 7 } else { (i * 29) % side },
            payload: i,
        })
        .collect();
    bench_batch(&mut g, "hotspot_phase11_side64".to_string(), side, reqs, 1);
    g.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut g = c.benchmark_group("mot_primitives");
    g.sample_size(20);
    for side in [64usize, 256] {
        let mot = MotTopology::new(side);
        let a: Vec<i64> = (0..side * side).map(|i| (i % 17) as i64 - 8).collect();
        let x: Vec<i64> = (0..side).map(|j| j as i64).collect();
        g.bench_function(format!("matvec_side{side}"), |bch| {
            bch.iter(|| primitives::matvec(&mot, black_box(&a), black_box(&x)))
        });
    }
    g.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("mot_build");
    g.sample_size(10);
    for side in [64usize, 128] {
        g.bench_function(format!("topology_side{side}"), |bch| {
            bch.iter(|| MotTopology::new(black_box(side)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_routing, bench_primitives, bench_build);
criterion_main!(benches);
