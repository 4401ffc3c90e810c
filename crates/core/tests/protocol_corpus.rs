//! Seeded protocol corpus: pins the two-stage cluster protocol's
//! observable behaviour below what the scheme-level golden snapshots see.
//!
//! The goldens only observe what reaches a `StepReport`. This corpus also
//! pins every phase's attempt batch exactly as an executor receives it
//! (`req, copy, module, row, src`, in batch order) together with the
//! outcomes the executor returned, each step's `ProtocolStats`, and each
//! request's accessed copy *set*. Each configuration is
//! `executor × map × pipeline × r × {fault-free, lossy}`:
//!
//! * executors: `BipartiteExec` + `FlatPlacement`, `MotExec::leaves` +
//!   `GridPlacement`, `MotExec::roots` + `FlatPlacement`;
//! * maps: random, and congested (every copy in modules `0..r`, which
//!   forces stage 2);
//! * stage-2 pipeline 1 and 4; `r = 11` (one mask word per request) and
//!   `r = 79` (two words);
//! * the lossy decorator marks modules 0 and 5 `Dead` and kills every
//!   attempt issued by processor 1.
//!
//! Each configuration runs three seeded steps of shrinking size through
//! one reused workspace and folds everything into one FNV-1a hash. The
//! table was recorded on the stride-`r` quorum-list data plane, before
//! the per-request bitmasks became the only quorum state; any change to
//! issue order, member rotation, placement or quorum bookkeeping changes
//! a hash.

use cr_core::executors::{BipartiteExec, MotExec};
use cr_core::protocol::{
    run_protocol, AttemptOutcome, CopyAttempt, CopyPlacement, FlatPlacement, GridPlacement,
    PhaseExecutor, ProtocolStats, ProtocolWorkspace,
};
use memdist::{Clusters, MemoryMap};
use pram_machine::StepCost;
use simrng::{fnv1a, rng_from_seed, Rng, FNV_OFFSET};

/// `(executor, map, pipeline, r, lossy) → hash`, recorded on the
/// stride-`r` quorum-list data plane.
const EXPECTED: &[(&str, &str, usize, usize, bool, u64)] = &[
    ("bipartite", "random", 1, 11, false, 0xbd6ea53e4018f17f),
    ("bipartite", "random", 1, 11, true, 0x79f76047d4a7c930),
    ("bipartite", "random", 1, 79, false, 0xbda4d4218fdd4fc2),
    ("bipartite", "random", 1, 79, true, 0xa63f6fa6ff08f2c4),
    ("bipartite", "random", 4, 11, false, 0x897c6934da193daf),
    ("bipartite", "random", 4, 11, true, 0x3047b5f523a677a8),
    ("bipartite", "random", 4, 79, false, 0x263d72c75e96244f),
    ("bipartite", "random", 4, 79, true, 0x06e9ef7eea355376),
    ("bipartite", "congested", 1, 11, false, 0x82edfd1578e4f763),
    ("bipartite", "congested", 1, 11, true, 0x9efbd26155d388e9),
    ("bipartite", "congested", 1, 79, false, 0xac4b998f92080461),
    ("bipartite", "congested", 1, 79, true, 0xf3d644e17550a469),
    ("bipartite", "congested", 4, 11, false, 0xfc4034b2a0abfbce),
    ("bipartite", "congested", 4, 11, true, 0xc8f357cd7f7c07c6),
    ("bipartite", "congested", 4, 79, false, 0xdbcee5f6299334d2),
    ("bipartite", "congested", 4, 79, true, 0xb0ccc809dc6720ed),
    ("mot-leaves", "random", 1, 11, false, 0x8f4f5c1af317f5c7),
    ("mot-leaves", "random", 1, 11, true, 0xe883f133f891b0f6),
    ("mot-leaves", "random", 1, 79, false, 0x7207a139b4e044d3),
    ("mot-leaves", "random", 1, 79, true, 0x7784461a852ebe43),
    ("mot-leaves", "random", 4, 11, false, 0xe31a7fd316bae8ee),
    ("mot-leaves", "random", 4, 11, true, 0x8e879ec9e91cf095),
    ("mot-leaves", "random", 4, 79, false, 0x765d43d4b2b7e03d),
    ("mot-leaves", "random", 4, 79, true, 0xb04c2c27b1db804c),
    ("mot-leaves", "congested", 1, 11, false, 0x93ae7f36278438f2),
    ("mot-leaves", "congested", 1, 11, true, 0xc0c6c15983db9d29),
    ("mot-leaves", "congested", 1, 79, false, 0x904a14d4b987d00b),
    ("mot-leaves", "congested", 1, 79, true, 0x5d3bd93a6a2ecc4b),
    ("mot-leaves", "congested", 4, 11, false, 0x3caeadd6afb1b766),
    ("mot-leaves", "congested", 4, 11, true, 0x237187c167677b7f),
    ("mot-leaves", "congested", 4, 79, false, 0x8f3572440f7763d0),
    ("mot-leaves", "congested", 4, 79, true, 0x5567a0a0a3e82525),
    ("mot-roots", "random", 1, 11, false, 0x847acb727410964c),
    ("mot-roots", "random", 1, 11, true, 0x0f910eb2dfd6f912),
    ("mot-roots", "random", 1, 79, false, 0xbd22e0e7327c0573),
    ("mot-roots", "random", 1, 79, true, 0xa4204242fa0b84a9),
    ("mot-roots", "random", 4, 11, false, 0x9f931fa95a461c99),
    ("mot-roots", "random", 4, 11, true, 0xb8c3944ab63ada33),
    ("mot-roots", "random", 4, 79, false, 0x2a783e22aaf7f7cf),
    ("mot-roots", "random", 4, 79, true, 0x4f681e0de942994f),
    ("mot-roots", "congested", 1, 11, false, 0xf6354dc85d63c033),
    ("mot-roots", "congested", 1, 11, true, 0x51a9e46634837807),
    ("mot-roots", "congested", 1, 79, false, 0x135242c43b35b8ab),
    ("mot-roots", "congested", 1, 79, true, 0x3feb956a9450b2ea),
    ("mot-roots", "congested", 4, 11, false, 0xf06f9ea525ce5576),
    ("mot-roots", "congested", 4, 11, true, 0xfb9a9714140a9050),
    ("mot-roots", "congested", 4, 79, false, 0xadf9e77fce7bf975),
    ("mot-roots", "congested", 4, 79, true, 0x4489632f11b3658b),
];

/// Folds every phase's attempt batch and outcomes into a running hash.
struct Recorder<E> {
    inner: E,
    hash: u64,
    phases: u64,
}

impl<E: PhaseExecutor> PhaseExecutor for Recorder<E> {
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        let cost = self.inner.execute(attempts, pipeline, outcome);
        self.phases += 1;
        let h = &mut self.hash;
        fnv1a(h, attempts.len() as u64);
        fnv1a(h, pipeline as u64);
        for (a, out) in attempts.iter().zip(outcome.iter()) {
            fnv1a(h, (a.req as u64) << 32 | a.copy as u64);
            fnv1a(h, (a.module as u64) << 32 | a.row as u64);
            let out = match out {
                AttemptOutcome::Served => 1u64,
                AttemptOutcome::Killed => 2,
                AttemptOutcome::Dead => 3,
            };
            fnv1a(h, out << 32 | a.src as u64);
        }
        for v in [cost.phases, cost.cycles, cost.messages] {
            fnv1a(h, v);
        }
        cost
    }

    fn lossy(&self) -> bool {
        self.inner.lossy()
    }
}

/// When enabled: modules 0 and 5 are permanently dead, and processor 1
/// can deliver nothing (a transient kill from the protocol's view).
struct Lossy<E> {
    inner: E,
    enabled: bool,
}

impl<E: PhaseExecutor> PhaseExecutor for Lossy<E> {
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        let cost = self.inner.execute(attempts, pipeline, outcome);
        if self.enabled {
            for (a, out) in attempts.iter().zip(outcome.iter_mut()) {
                if a.module == 0 || a.module == 5 {
                    *out = AttemptOutcome::Dead;
                } else if a.src == 1 {
                    *out = AttemptOutcome::Killed;
                }
            }
        }
        cost
    }

    fn lossy(&self) -> bool {
        self.enabled || self.inner.lossy()
    }
}

fn fold_stats(h: &mut u64, s: &ProtocolStats) {
    for v in [
        s.stage1_phases,
        s.stage2_phases,
        s.cycles,
        s.messages,
        s.stage1_cycles,
        s.stage1_messages,
        s.stage1_leftover as u64,
        s.killed_attempts,
        s.dead_attempts,
        s.failed_requests as u64,
        s.copies_accessed,
    ] {
        fnv1a(h, v);
    }
}

/// One configuration's machine: processors, variables, map universe.
struct Shape {
    n: usize,
    m: usize,
    modules: usize,
    /// Largest request count per step.
    max_requests: usize,
}

/// Hash of one configuration, plus the counters that show the corpus
/// reaches stage 2, dead copies and failed requests.
fn config_hash<E: PhaseExecutor>(
    exec: E,
    placement: &impl CopyPlacement,
    shape: &Shape,
    congested: bool,
    pipeline: usize,
    r: usize,
    lossy: bool,
) -> (u64, ProtocolStats) {
    let c = r.div_ceil(2);
    let Shape {
        n,
        m,
        modules,
        max_requests,
    } = *shape;
    let seed = (n as u64) << 32 | (r as u64) << 16 | (pipeline as u64) << 2;
    let map = if congested {
        MemoryMap::congested(m, modules, r)
    } else {
        MemoryMap::random(m, modules, r, seed)
    };
    let clusters = Clusters::new(n, r);
    let mut exec = Recorder {
        inner: Lossy {
            inner: exec,
            enabled: lossy,
        },
        hash: FNV_OFFSET,
        phases: 0,
    };
    let mut ws = ProtocolWorkspace::new();
    let mut rng = rng_from_seed(seed ^ 0xc0de);
    let mut total = ProtocolStats::default();
    let mut step_hash = FNV_OFFSET;
    for step in 0..3 {
        let k = (max_requests >> step).max(1);
        let procs = rng.sample_distinct(n as u64, k);
        let vars = rng.sample_distinct(m as u64, k);
        let requests: Vec<(usize, usize)> = procs
            .iter()
            .zip(&vars)
            .map(|(&p, &v)| (p as usize, v as usize))
            .collect();
        let stats = run_protocol(
            &requests, &clusters, c, r, &map, placement, &mut exec, 6, pipeline, &mut ws,
        );
        fold_stats(&mut step_hash, &stats);
        fnv1a(&mut step_hash, ws.requests() as u64);
        for i in 0..requests.len() {
            let mut set: Vec<usize> = ws.accessed(i).collect();
            set.sort_unstable();
            fnv1a(&mut step_hash, set.len() as u64);
            for copy in set {
                fnv1a(&mut step_hash, copy as u64);
            }
        }
        total.accumulate(&stats);
    }
    let mut h = exec.hash;
    fnv1a(&mut h, exec.phases);
    fnv1a(&mut h, step_hash);
    (h, total)
}

#[test]
fn protocol_corpus_matches_recorded_hashes() {
    let mut actual = Vec::new();
    let mut total = ProtocolStats::default();
    for exec in ["bipartite", "mot-leaves", "mot-roots"] {
        for map in ["random", "congested"] {
            for pipeline in [1, 4] {
                for r in [11, 79] {
                    for lossy in [false, true] {
                        let congested = map == "congested";
                        let (h, stats) = match (exec, r) {
                            ("bipartite", 11) => {
                                let shape = Shape {
                                    n: 64,
                                    m: 512,
                                    modules: 128,
                                    max_requests: 64,
                                };
                                let e = BipartiteExec::new(shape.modules);
                                config_hash(
                                    e,
                                    &FlatPlacement,
                                    &shape,
                                    congested,
                                    pipeline,
                                    r,
                                    lossy,
                                )
                            }
                            ("bipartite", _) => {
                                let shape = Shape {
                                    n: 160,
                                    m: 512,
                                    modules: 256,
                                    max_requests: 160,
                                };
                                let e = BipartiteExec::new(shape.modules);
                                config_hash(
                                    e,
                                    &FlatPlacement,
                                    &shape,
                                    congested,
                                    pipeline,
                                    r,
                                    lossy,
                                )
                            }
                            (_, _) => {
                                let side = if r == 11 { 16 } else { 128 };
                                let shape = Shape {
                                    n: side,
                                    m: 4 * side,
                                    modules: side,
                                    max_requests: if r == 11 { side } else { 24 },
                                };
                                if exec == "mot-leaves" {
                                    let e = MotExec::leaves(side);
                                    let p = GridPlacement { side };
                                    config_hash(e, &p, &shape, congested, pipeline, r, lossy)
                                } else {
                                    let e = MotExec::roots(side);
                                    config_hash(
                                        e,
                                        &FlatPlacement,
                                        &shape,
                                        congested,
                                        pipeline,
                                        r,
                                        lossy,
                                    )
                                }
                            }
                        };
                        total.accumulate(&stats);
                        actual.push((exec, map, pipeline, r, lossy, h));
                    }
                }
            }
        }
    }
    // Every protocol path is exercised, so a hash match is not vacuous.
    assert!(total.stage2_phases > 0, "corpus never reaches stage 2");
    assert!(total.dead_attempts > 0, "corpus never writes a copy off");
    assert!(total.killed_attempts > 0, "corpus never loses a race");
    let table: String = actual
        .iter()
        .map(|(e, m, p, r, l, h)| format!("    (\"{e}\", \"{m}\", {p}, {r}, {l}, {h:#018x}),\n"))
        .collect();
    assert_eq!(
        actual.as_slice(),
        EXPECTED,
        "protocol corpus drifted; actual table:\n{table}"
    );
}
