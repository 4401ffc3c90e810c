//! Randomized property tests on the workspace's core invariants.
//!
//! Implemented over the workspace's own deterministic RNG (`simrng`)
//! rather than an external property-testing framework, so the sampled
//! cases are bit-reproducible from the seeds below and the test needs no
//! network-fetched dependencies. Every property runs many independently
//! seeded cases; a failure message carries the case seed.

use pramsim::core::{SchemeKind, SimBuilder};
use pramsim::machine::{IdealMemory, SharedMemory};
use pramsim::memdist::{MemoryMap, ReplicatedStore};
use pramsim::simrng::{rng_from_seed, Rng};

/// A random step plan: up to `n` distinct addresses split into reads and
/// writes, with random values.
fn random_step(
    rng: &mut impl Rng,
    n: usize,
    m: usize,
    step: usize,
) -> (Vec<usize>, Vec<(usize, i64)>) {
    let k = 1 + rng.index(n.min(m));
    let addrs = rng.sample_distinct(m as u64, k);
    let split = rng.index(k + 1);
    let reads: Vec<usize> = addrs[..split].iter().map(|&a| a as usize).collect();
    let writes: Vec<(usize, i64)> = addrs[split..]
        .iter()
        .map(|&a| (a as usize, rng.next_u64() as i64 ^ step as i64))
        .collect();
    (reads, writes)
}

/// Drive a scheme and the ideal memory with the same steps; every read
/// must agree (sequential consistency of the simulation).
fn check_against_ideal(
    mem: &mut dyn SharedMemory,
    n: usize,
    m: usize,
    case_seed: u64,
    steps: usize,
) {
    let mut ideal = IdealMemory::new(m);
    let mut rng = rng_from_seed(case_seed);
    for step in 0..steps {
        let (reads, writes) = random_step(&mut rng, n, m, step);
        let got = mem.access(&reads, &writes);
        let expect = ideal.access(&reads, &writes);
        assert_eq!(
            got.read_values, expect.read_values,
            "case seed {case_seed}, step {step}, reads {reads:?}"
        );
    }
}

#[test]
fn every_scheme_sequentially_consistent() {
    for kind in SchemeKind::ALL {
        // The cycle-level mesh schemes route every packet; keep their
        // instances smaller so the matrix stays fast.
        let (n, m, cases, steps) = match kind {
            SchemeKind::Hp2dmotLeaves | SchemeKind::Lpp2dmot => (4, 32, 4, 6),
            _ => (8, 64, 8, 12),
        };
        for case in 0..cases {
            let case_seed = 0xC0FFEE ^ (case as u64) << 8;
            let mut scheme = SimBuilder::new(n, m)
                .kind(kind)
                .seed(case_seed)
                .build()
                .unwrap();
            check_against_ideal(scheme.as_mut(), n, m, case_seed, steps);
        }
    }
}

#[test]
fn multi_word_quorums_sequentially_consistent() {
    // Two processors over 1024 cells: the builder picks c = 40, r = 79,
    // so each request's copy bitmasks span two 64-bit words — the path
    // the one-word fast path of every other configuration skips.
    for kind in [SchemeKind::HpDmmpc, SchemeKind::Hp2dmotLeaves] {
        let (n, m) = (2, 1024);
        let mut scheme = SimBuilder::new(n, m).kind(kind).seed(5).build().unwrap();
        assert!(
            scheme.redundancy() > 64.0,
            "{kind}: r = {} fits one mask word",
            scheme.redundancy()
        );
        check_against_ideal(scheme.as_mut(), n, m, 0xB17 ^ kind as u64, 500);
    }
}

#[test]
fn quorum_intersection_holds() {
    // Any write quorum of size c followed by any read quorum of size c
    // yields the written value (r = 2c - 1).
    let mut rng = rng_from_seed(0x9E3779B9);
    for case in 0..200 {
        let c = 2 + rng.index(4);
        let r = 2 * c - 1;
        let value = rng.next_u64() as i64;
        let map = MemoryMap::random(4, 4 * r, r, 1);
        let mut store = ReplicatedStore::new(&map);
        let wq: Vec<usize> = rng
            .sample_distinct(r as u64, c)
            .into_iter()
            .map(|x| x as usize)
            .collect();
        let rq: Vec<usize> = rng
            .sample_distinct(r as u64, c)
            .into_iter()
            .map(|x| x as usize)
            .collect();
        store.write_quorum(0, wq.iter().copied(), value, 7);
        assert_eq!(
            store.read_majority(0, rq.iter().copied()),
            value,
            "case {case}: c={c}, write quorum {wq:?}, read quorum {rq:?}"
        );
    }
}

#[test]
fn maps_have_distinct_copy_modules() {
    // Memory maps always place a variable's copies in distinct modules.
    let mut rng = rng_from_seed(0xDEADBEEF);
    for case in 0..150 {
        let m = 1 + rng.index(200);
        let modules = 1usize << (3 + rng.index(5));
        let r = 1 + rng.index(5.min(modules));
        let seed = rng.next_u64();
        let map = MemoryMap::random(m, modules, r, seed);
        assert!(
            map.validate().is_ok(),
            "case {case}: m={m}, modules={modules}, r={r}, seed={seed}"
        );
    }
}

#[test]
fn builder_rejections_are_total() {
    // Randomly sampled infeasible configurations must yield Err, never a
    // panic and never a silently clamped scheme.
    use pramsim::core::SchemeConfig;
    let mut rng = rng_from_seed(0xBADC0DE);
    for _ in 0..100 {
        let n = 1 + rng.index(32);
        let m = 1 + rng.index(512);
        let kind = SchemeKind::ALL[rng.index(4)]; // the copy-based four
        let modules_default = match kind {
            SchemeKind::UwMpc | SchemeKind::Lpp2dmot => n.max(2),
            _ => SchemeConfig::for_pram(n, m).modules,
        };
        // A c too large for the module count must be rejected.
        let c = modules_default / 2 + 2 + rng.index(8);
        let built = SimBuilder::new(n, m).kind(kind).c(c).build();
        assert!(
            built.is_err(),
            "{kind} with n={n}, c={c} (r={}) over {modules_default} default modules must not build",
            2 * c - 1
        );
    }
}

#[test]
fn scheme_diagnostics_accumulate_monotonically() {
    for kind in SchemeKind::ALL {
        let mut s = SimBuilder::new(8, 64).kind(kind).build().unwrap();
        let mut prev_requests = 0;
        let mut rng = rng_from_seed(42);
        for step in 0..10 {
            let (reads, writes) = random_step(&mut rng, 8, 64, step);
            s.access(&reads, &writes);
            let (tot, steps) = s.totals();
            assert_eq!(steps, step as u64 + 1, "{kind}");
            assert!(tot.requests > prev_requests, "{kind} must count requests");
            assert_eq!(s.last_step().requests, reads.len() + writes.len(), "{kind}");
            prev_requests = tot.requests;
        }
    }
}
