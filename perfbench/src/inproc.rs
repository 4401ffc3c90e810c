//! The in-process workloads: one thread in a closed loop calling
//! `access` on one scheme over steps generated before timing.
//!
//! A run cycles through a fixed list of seeded steps. The first pass warms
//! the scheme up; the exact counters come from the second, so they repeat
//! for a seed no matter how many passes the clock allows. Every read value is checked
//! against an `IdealMemory` replay of the same steps.

use std::time::{Duration, Instant};

use cr_core::protocol::ProtocolStats;
use cr_core::SchemeKind;
use pram_machine::{IdealMemory, SharedMemory, StepCost, Word};
use simrng::{mix64, rng_from_seed, Rng, Xoshiro256pp};
use workloads::{StepPattern, Zipf};

use crate::affinity::Rotation;
use crate::engine::{self, CallLog, Engine};
use crate::host::{self, Host};
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats::{median_f64, ratio, wall_clock, Sample, WallClock};
use crate::{harness, timed_setup, Args, Failure, Report};

/// How a workload's steps are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Gen {
    /// `n` distinct uniform cells, this fraction of them writes.
    Uniform {
        /// Share of requests that write.
        write_frac: f64,
    },
    /// `n` Zipf draws, deduplicated into one read step.
    Hotspot {
        /// Zipf exponent.
        theta: f64,
    },
}

/// One in-process workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Scheme under test.
    pub kind: SchemeKind,
    /// P-RAM processors.
    pub n: usize,
    /// Shared cells.
    pub m: usize,
    /// Length of the step list a run cycles through.
    pub steps_per_pass: usize,
    /// Step distribution.
    pub gen: Gen,
}

/// Theorem 2's scheme at the largest size E15 publishes.
pub const DMMPC_UNIFORM: Spec = Spec {
    kind: SchemeKind::HpDmmpc,
    n: 1024,
    m: 4096,
    steps_per_pass: 128,
    gen: Gen::Uniform { write_frac: 0.3 },
};

/// Theorem 3's cycle-level routing under concentrated reads.
pub const MOT_HOTSPOT: Spec = Spec {
    kind: SchemeKind::Hp2dmotLeaves,
    n: 16,
    m: 64,
    steps_per_pass: 4096,
    gen: Gen::Hotspot { theta: 1.2 },
};

/// Generation replays behind `workloads.gen_ns_per_step`.
const GEN_REPS: usize = 5;

/// Seeds of the scheme, the step stream and the initial memory.
fn seeds(seed: u64) -> (u64, u64, u64) {
    (
        mix64(seed ^ 0x5C4E),
        mix64(seed ^ 0x57E9),
        mix64(seed ^ 0x1417),
    )
}

/// The step generator a spec names, with its reusable buffers.
struct Generator {
    spec: Spec,
    rng: Xoshiro256pp,
    zipf: Option<Zipf>,
    scratch: Vec<u64>,
}

impl Generator {
    fn new(spec: &Spec, seed: u64) -> Generator {
        Generator {
            spec: *spec,
            rng: rng_from_seed(seeds(seed).1),
            zipf: match spec.gen {
                Gen::Hotspot { theta } => Some(Zipf::new(spec.m, theta)),
                Gen::Uniform { .. } => None,
            },
            scratch: Vec::new(),
        }
    }

    fn next_into(&mut self, out: &mut StepPattern) {
        let Spec { n, m, .. } = self.spec;
        match (self.spec.gen, &self.zipf) {
            (Gen::Uniform { write_frac }, _) => {
                workloads::uniform_into(n, m, write_frac, &mut self.rng, &mut self.scratch, out)
            }
            (Gen::Hotspot { .. }, Some(zipf)) => {
                workloads::hotspot_into(n, zipf, &mut self.rng, out)
            }
            (Gen::Hotspot { .. }, None) => unreachable!("hotspot generator without its CDF"),
        }
    }
}

/// The step list of a run.
fn generate(spec: &Spec, seed: u64) -> Vec<StepPattern> {
    let mut g = Generator::new(spec, seed);
    (0..spec.steps_per_pass)
        .map(|_| {
            let mut p = StepPattern::default();
            g.next_into(&mut p);
            p
        })
        .collect()
}

/// Initial memory contents, so reads return something to check.
fn initial_memory(m: usize, seed: u64) -> Vec<Word> {
    let mut rng = rng_from_seed(seeds(seed).2);
    (0..m).map(|_| rng.next_u64() as Word).collect()
}

/// A scheme holding the initial memory, and the steps to drive through it.
struct Prepared {
    scheme: Box<dyn Engine>,
    log: Option<CallLog>,
    steps: Vec<StepPattern>,
    init: Vec<Word>,
}

fn prepare(spec: &Spec, seed: u64, timed: Option<Instant>) -> Result<Prepared, Failure> {
    let (mut scheme, log) =
        engine::build(spec.kind, spec.n, spec.m, seeds(seed).0, timed).map_err(harness)?;
    let steps = generate(spec, seed);
    let init = initial_memory(spec.m, seed);
    for (addr, &v) in init.iter().enumerate() {
        scheme.init(addr, v);
    }
    Ok(Prepared {
        scheme,
        log,
        steps,
        init,
    })
}

/// One closed-loop measurement.
struct Pass {
    /// Every access, timed.
    samples: Vec<Sample>,
    /// Digest of every access's read values.
    digests: Vec<u64>,
    /// Time spent measuring, pauses for the reference kernel left out.
    active: Duration,
    /// The reference kernel's times (ns).
    reference: Vec<u64>,
    /// Summed step costs over the second pass through the list.
    cost: StepCost,
    /// Summed protocol counters over the second pass.
    proto: ProtocolStats,
    /// Allocations the accesses of the second pass made on this thread.
    allocs: u64,
    /// Accesses in which some request ended below quorum.
    failed: u64,
    /// Peak resident memory when the second pass ended (MB).
    rss_mb: f64,
}

impl Pass {
    fn wall_clock(&self) -> WallClock {
        wall_clock(
            &self.samples,
            self.active.as_nanos() as u64,
            &self.reference,
        )
    }
}

/// Order-sensitive digest of one access's read values.
fn digest(values: &[Word]) -> u64 {
    values.iter().fold(simrng::FNV_OFFSET, |h, &v| {
        (h ^ v as u64).wrapping_mul(0x100_0000_01b3)
    })
}

/// Drive the step list through the scheme for `budget` (and at least two
/// full passes) on one CPU at a time, pausing for the reference kernel
/// between accesses, recording spans when `trace` is given.
fn drive(
    p: &mut Prepared,
    budget: Duration,
    mut trace: Option<(&mut Spans, &'static str)>,
) -> Pass {
    let k = p.steps.len();
    let mut samples = Vec::with_capacity(k * 8);
    let mut digests = Vec::with_capacity(k * 8);
    let mut cost = StepCost::default();
    let mut proto = ProtocolStats::default();
    let mut allocs = 0;
    let mut failed = 0;
    let mut rss_mb = 0.0;
    let mut kernel = Reference::new();
    let mut paused = Duration::ZERO;
    let rotation = Rotation::start();
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        let step = &p.steps[i % k];
        let a0 = metrics::counting::thread_allocations();
        let t0 = Instant::now();
        let res = p.scheme.step(&step.reads, &step.writes);
        let t1 = Instant::now();
        let a1 = metrics::counting::thread_allocations();
        samples.push(Sample {
            end: (t1 - start - paused).as_nanos() as u64,
            lat: (t1 - t0).as_nanos() as u64,
            steps: 1,
        });
        digests.push(digest(&res.read_values));
        let report = p.scheme.last_step();
        failed += u64::from(report.protocol.failed_requests > 0);
        if let (Some((spans, name)), Some(log)) = (trace.as_mut(), &p.log) {
            let parent = spans.push(name, spans.at(t0), spans.at(t1), None, i as u64);
            for &(s, e) in log.borrow().iter() {
                spans.push("core.executor", s, e, Some(parent), i as u64);
            }
            log.borrow_mut().clear();
        }
        if (k..2 * k).contains(&i) {
            cost.add(res.cost);
            proto.accumulate(&report.protocol);
            allocs += a1 - a0;
        }
        i += 1;
        if i == 2 * k {
            rss_mb = host::peak_rss_mb();
        }
        if i >= 2 * k && t1 - start >= budget {
            break;
        }
        if kernel.due(t1) {
            paused += kernel.run();
        }
    }
    let active = start.elapsed() - paused;
    drop(rotation);
    Pass {
        samples,
        digests,
        active,
        reference: kernel.times().to_vec(),
        cost,
        proto,
        allocs,
        failed,
        rss_mb,
    }
}

/// Replay the steps on the ideal P-RAM and compare every read.
fn check(p: &Prepared, pass: &Pass) -> Result<(), Failure> {
    let mut ideal = IdealMemory::from_cells(p.init.clone());
    for (i, &d) in pass.digests.iter().enumerate() {
        let step = &p.steps[i % p.steps.len()];
        let want = ideal.access(&step.reads, &step.writes);
        if digest(&want.read_values) != d {
            return Err(Failure::Incorrect(format!(
                "access {i}: read values differ from the ideal P-RAM's"
            )));
        }
    }
    Ok(())
}

/// Span name of an access on `kind`.
pub fn access_span(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::HpDmmpc => "core.access.hp-dmmpc",
        SchemeKind::Hp2dmotLeaves => "core.access.hp-2dmot",
        SchemeKind::Hashed => "core.access.hashed",
        SchemeKind::Ida => "core.access.ida",
        SchemeKind::UwMpc => "core.access.uw-mpc",
        SchemeKind::Lpp2dmot => "core.access.lpp-2dmot",
    }
}

/// Median time per step of regenerating the step list into reused
/// buffers (`workloads` alone).
fn generation_ns_per_step(spec: &Spec, seed: u64) -> f64 {
    let mut per_step: Vec<f64> = (0..GEN_REPS)
        .map(|_| {
            let mut g = Generator::new(spec, seed);
            let mut out = StepPattern::default();
            let t0 = Instant::now();
            for _ in 0..spec.steps_per_pass {
                g.next_into(&mut out);
                std::hint::black_box(&out);
            }
            t0.elapsed().as_nanos() as f64 / spec.steps_per_pass as f64
        })
        .collect();
    median_f64(&mut per_step)
}

/// Run an in-process workload.
pub fn run(spec: &Spec, args: &Args) -> Result<Report, Failure> {
    let (mut p, setup_s, raw_setup_s) = timed_setup(|| prepare(spec, args.seed, None), drop)?;
    let budget = Duration::from_secs_f64(if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    });
    let pass = drive(&mut p, budget, None);
    check(&p, &pass)?;

    let k = spec.steps_per_pass as f64;
    let mut r = Report::new(Host::probe(0, 0));
    r.attempted = pass.samples.len() as u64;
    r.failed = pass.failed;
    r.set_wall_clock(&pass.wall_clock());
    r.set("cycles_per_step", pass.cost.cycles as f64 / k);
    r.set("messages_per_step", pass.cost.messages as f64 / k);
    r.set("phases_per_step", pass.cost.phases as f64 / k);
    r.set("setup_s", setup_s);
    r.notes
        .push(format!("setup_s as measured {raw_setup_s:.6}"));
    r.set("peak_rss_mb", pass.rss_mb);

    if args.trace {
        drop(p);
        traced(spec, args, &pass, budget, &mut r)?;
    }
    Ok(r)
}

/// The traced half of a traced run, and the per-layer metrics.
fn traced(
    spec: &Spec,
    args: &Args,
    pass: &Pass,
    budget: Duration,
    r: &mut Report,
) -> Result<(), Failure> {
    let epoch = Instant::now();
    let mut spans = Spans::new(epoch);
    let mut p = prepare(spec, args.seed, Some(epoch))?;
    let tpass = drive(&mut p, budget, Some((&mut spans, access_span(spec.kind))));
    check(&p, &tpass)?;
    if tpass.proto != pass.proto || tpass.cost != pass.cost {
        return Err(Failure::Incorrect(
            "the timed-executor assembly ran a different protocol than SimBuilder's scheme".into(),
        ));
    }

    let k = spec.steps_per_pass as f64;
    let steps = tpass.samples.len() as f64;
    let t = spans.totals();
    let access = t[access_span(spec.kind)];
    let exec_ns = t.get("core.executor").map_or(0, |e| e.total_ns) as f64;
    let proto = pass.proto;
    r.set(
        "workloads.gen_ns_per_step",
        generation_ns_per_step(spec, args.seed),
    );
    r.set("core.access_ns_per_step", access.total_ns as f64 / steps);
    r.set(
        "core.protocol_self_ns_per_step",
        access.self_ns as f64 / steps,
    );
    r.set("core.executor_ns_per_step", exec_ns / steps);
    r.set(
        "mot.route_ns_per_step",
        if spec.kind == SchemeKind::Hp2dmotLeaves {
            exec_ns / steps
        } else {
            0.0
        },
    );
    r.set(
        "core.stage1_phases_per_step",
        proto.stage1_phases as f64 / k,
    );
    r.set(
        "core.stage2_phases_per_step",
        proto.stage2_phases as f64 / k,
    );
    r.set(
        "core.stage1_leftover_per_step",
        proto.stage1_leftover as f64 / k,
    );
    r.set(
        "core.useful_attempt_ratio",
        ratio(
            proto.copies_accessed as f64,
            (proto.copies_accessed + proto.killed_attempts) as f64,
        ),
    );
    r.set("core.allocs_per_step", pass.allocs as f64 / k);
    r.set(
        "core.access_ns_per_step.hp-dmmpc",
        if spec.kind == SchemeKind::HpDmmpc {
            access.total_ns as f64 / steps
        } else {
            0.0
        },
    );
    r.bypassed(&[
        "ida.decode_cache_hit_ratio",
        "core.access_ns_per_step.hashed",
        "core.access_ns_per_step.ida",
        "verify.record_ns_per_step",
        "verify.checked_ops",
        "server.tcp_self_us",
        "server.protocol_self_us",
        "server.queue_self_us",
        "server.session_self_us",
        "server.parse_ns",
        "server.render_ns",
        "server.queue_full_total",
    ]);
    r.set(
        "bench.trace_overhead_frac",
        1.0 - tpass.wall_clock().steps_per_sec() / pass.wall_clock().steps_per_sec(),
    );
    // Every layer the request crosses is a span (access self time plus
    // executor children), so the residual is what the untraced request's
    // whole-run median exceeds the traced one's by, both at the nominal
    // pace.
    let (untraced_p50, traced_p50) = (pass.wall_clock().p50_ns(), tpass.wall_clock().p50_ns());
    r.set(
        "bench.residual_frac",
        (untraced_p50 - traced_p50) / untraced_p50,
    );
    r.notes.push(format!(
        "untraced {:.1} steps/s, traced {:.1} steps/s over {} accesses; second-pass counters \
         match between SimBuilder's scheme and the timed-executor assembly",
        pass.wall_clock().steps_per_sec(),
        tpass.wall_clock().steps_per_sec(),
        tpass.samples.len()
    ));
    r.spans = Some(spans);
    Ok(())
}
