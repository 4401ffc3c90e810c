//! The repository benchmark: one command that runs a named workload, checks
//! its outputs, and prints every end-to-end metric (untraced run) or every
//! per-layer metric (traced run) by name and unit.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Layers are measured from outside: the benchmark times its own calls into
//! each crate's public functions, plus a timing decorator around the phase
//! executor (see [`engine`]). A layer a workload bypasses reports 0 for its
//! times and ratios, which is the "no change" prediction for optimisations
//! of that layer.

pub mod affinity;
pub mod engine;
pub mod host;
pub mod inproc;
pub mod reference;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;
use std::fmt;

use host::Host;
use spans::Spans;

/// A metric's name and unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Stable name later measurements cite.
    pub name: &'static str,
    /// Unit the value is in.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("steps_per_sec", "1/s"),
    def("request_p50_us", "us"),
    def("cycles_per_step", "cycles/step"),
    def("messages_per_step", "msgs/step"),
    def("phases_per_step", "phases/step"),
    def("peak_rss_mb", "MB"),
    def("setup_s", "s"),
];

/// Single layers; reported by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    def("workloads.gen_ns_per_step", "ns/step"),
    def("core.access_ns_per_step", "ns/step"),
    def("core.protocol_self_ns_per_step", "ns/step"),
    def("core.executor_ns_per_step", "ns/step"),
    def("mot.route_ns_per_step", "ns/step"),
    def("core.stage1_phases_per_step", "phases/step"),
    def("core.stage2_phases_per_step", "phases/step"),
    def("core.stage1_leftover_per_step", "reqs/step"),
    def("core.useful_attempt_ratio", "ratio"),
    def("core.allocs_per_step", "allocs/step"),
    def("ida.decode_cache_hit_ratio", "ratio"),
    def("core.access_ns_per_step.hashed", "ns/step"),
    def("core.access_ns_per_step.ida", "ns/step"),
    def("core.access_ns_per_step.hp-dmmpc", "ns/step"),
    def("verify.record_ns_per_step", "ns/step"),
    def("verify.checked_ops", "ops"),
    def("server.tcp_self_us", "us"),
    def("server.protocol_self_us", "us"),
    def("server.queue_self_us", "us"),
    def("server.session_self_us", "us"),
    def("server.parse_ns", "ns"),
    def("server.render_ns", "ns"),
    def("server.queue_full_total", "count"),
    def("bench.trace_overhead_frac", "frac"),
    def("bench.residual_frac", "frac"),
];

/// Counters that repeat exactly for one seed (the determinism contract).
pub const EXACT: &[&str] = &[
    "cycles_per_step",
    "messages_per_step",
    "phases_per_step",
    "core.stage1_phases_per_step",
    "core.stage2_phases_per_step",
    "core.stage1_leftover_per_step",
    "core.useful_attempt_ratio",
    "core.allocs_per_step",
    "ida.decode_cache_hit_ratio",
    "verify.checked_ops",
];

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Theorem 2's scheme in process: hp-dmmpc, n=1024, uniform steps.
    DmmpcUniform,
    /// Theorem 3's routing in process: hp-2dmot, n=16, Zipf reads.
    MotHotspot,
    /// The session service over loopback TCP.
    ServeTcp,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DmmpcUniform,
        Workload::MotHotspot,
        Workload::ServeTcp,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DmmpcUniform => "dmmpc-uniform",
            Workload::MotHotspot => "2dmot-hotspot",
            Workload::ServeTcp => "serve-tcp",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, Failure> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| Failure::Usage(format!("{flag} needs a value")))?;
            let bad = || Failure::Usage(format!("bad value for {flag}: {value}"));
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(Failure::Usage(format!("unknown flag {flag}"))),
            }
        }
        let missing = |f: &str| Failure::Usage(format!("missing {f}"));
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
        })
    }
}

/// Why a run produced no result.
#[derive(Debug)]
pub enum Failure {
    /// Bad command line.
    Usage(String),
    /// An output disagreed with its reference.
    Incorrect(String),
    /// The harness could not run (sockets, threads, scheme construction).
    Harness(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Usage(m) => write!(f, "usage: {m}"),
            Failure::Incorrect(m) => write!(f, "incorrect output: {m}"),
            Failure::Harness(m) => write!(f, "harness error: {m}"),
        }
    }
}

impl Failure {
    /// Process exit code for this failure.
    pub fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Incorrect(_) => 1,
            Failure::Harness(_) => 3,
        }
    }
}

/// Wrap any displayable harness error.
pub fn harness(e: impl fmt::Display) -> Failure {
    Failure::Harness(e.to_string())
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests that failed: `ERR` replies, dropped connections, failed
    /// accesses.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// The machine and thread layout.
    pub host: Host,
    /// The tail latency (us) and the request count behind both latency
    /// figures. Printed beside `request_p50_us`, not gated: on a shared
    /// host the tail moves with the neighbours more than with the code.
    pub tail: Option<(f64, usize)>,
    /// Spans of a traced run.
    pub spans: Option<Spans>,
    /// Remarks to print with the result.
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report for `host`.
    pub fn new(host: Host) -> Report {
        Report {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
            host,
            tail: None,
            spans: None,
            notes: Vec::new(),
        }
    }

    /// Record the whole-run wall-clock figures, at the nominal pace.
    pub fn set_wall_clock(&mut self, q: &stats::WallClock) {
        self.set("steps_per_sec", q.steps_per_sec());
        self.set("request_p50_us", q.p50_ns() / 1e3);
        self.tail = Some((q.p99_ns() / 1e3, q.samples));
        self.notes.push(format!(
            "pace {:.4} (reference kernel time over nominal); as measured: steps_per_sec {:.1} \
             (median of {} windows of at least {} ms; whole-run mean {:.1}), request_p50_us {:.3}",
            q.pace,
            q.raw_steps_per_sec,
            q.windows,
            stats::WINDOW_NS / 1_000_000,
            q.all_steps_per_sec,
            q.raw_p50 as f64 / 1e3
        ));
    }

    /// Record a metric (`name` must be in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Record 0 for layers this workload bypasses.
    pub fn bypassed(&mut self, names: &[&'static str]) {
        for &n in names {
            self.set(n, 0.0);
        }
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// The metrics a run with this trace setting reports.
    pub fn defs(trace: bool) -> &'static [MetricDef] {
        if trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// The result line: `correct`, `attempted`, `failed`, and every metric
    /// of the run's kind with its unit.
    pub fn result_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = Report::defs(trace)
            .iter()
            .map(|d| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    d.name,
                    json_number(self.get(d.name).unwrap_or_else(|| {
                        panic!("workload did not report metric {}", d.name)
                    })),
                    d.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not finite");
    format!("{x}")
}

/// Set-ups per CPU; `setup_s` is the median of them all.
const SETUP_REPS: usize = 25;

/// Set up [`SETUP_REPS`] times on each allowed CPU in turn, dropping each
/// set-up before the next and timing the reference kernel after it.
/// `setup_s` is the median over every CPU's set-ups, so that, like the
/// wall-clock figures, it weighs every CPU alike rather than measuring
/// whichever one the scheduler picked, divided by the pace the kernel
/// gives. Returns the last set-up, `setup_s`, and the set-up time as
/// measured.
pub fn timed_setup<T>(
    mut build: impl FnMut() -> Result<T, Failure>,
    mut teardown: impl FnMut(T),
) -> Result<(T, f64, f64), Failure> {
    let mut cpus: Vec<Option<usize>> = affinity::allowed_cpus().into_iter().map(Some).collect();
    if cpus.is_empty() {
        cpus.push(None);
    }
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPS * cpus.len());
    let mut kernel = reference::Reference::new();
    for cpu in cpus {
        let _pin = cpu.map(affinity::Pin::to);
        for _ in 0..SETUP_REPS {
            if let Some(old) = last.take() {
                teardown(old);
            }
            let t0 = std::time::Instant::now();
            last = Some(build()?);
            times.push(t0.elapsed().as_secs_f64());
            kernel.run();
        }
    }
    let raw = stats::median_f64(&mut times);
    let setup_s = raw / reference::pace(kernel.times());
    Ok((last.expect("at least one set-up"), setup_s, raw))
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Report, Failure> {
    match args.workload {
        Workload::DmmpcUniform => inproc::run(&inproc::DMMPC_UNIFORM, args),
        Workload::MotHotspot => inproc::run(&inproc::MOT_HOTSPOT, args),
        Workload::ServeTcp => serve::run(args),
    }
}
