//! `serve-tcp`: the session service behind a loopback TCP server booted in
//! this process, driven by client threads with one connection each.
//!
//! Each connection owns [`SLOTS_PER_CONN`] sessions and keeps one `STEPN`
//! outstanding per session: a session's next step waits for this step's
//! reply, as a P-RAM program's would. A session lives `OPEN`, `STEPN` ×
//! [`STEPNS_PER_SESSION`], `VERIFY`, `CLOSE`; then the slot opens a fresh
//! one. Sessions are small (n=16, m=64) and split a third each across
//! hashed, ida and hp-dmmpc, all verifying in `ring` mode.
//!
//! Correctness: every `VERIFY` must report a consistent trace, and every
//! `CLOSE` trace hash must equal a `Session` replayed on a bench thread
//! from the same spec and steps.
//!
//! One shard and one client connection serve the whole run, and every
//! thread of the process runs on one CPU at a time (see `affinity`).
//!
//! The traced run adds a latency ledger: a fixed set of sessions is driven
//! one request at a time through nested entry points — TCP, then
//! `protocol::execute` on an in-process `ServiceHandle`, then
//! `ServiceHandle::step_many`, then `Session::step` on the bench thread,
//! then the layers inside a step called one by one (workload generation,
//! `access`, `SessionVerifier::record_step`). Differences between the
//! levels' median `STEPN` times give each layer's self time.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cr_core::protocol::ProtocolStats;
use cr_core::SchemeKind;
use cr_serve::protocol;
use cr_serve::tcp::Server;
use cr_serve::{
    Service, ServiceConfig, ServiceHandle, Session, SessionSpec, SharedHistogram, SimClock,
    StepSummary, VerifyMode, WorkloadSpec,
};
use cr_verify::SessionVerifier;
use simrng::{fnv1a, mix64, rng_from_seed, FNV_OFFSET};
use workloads::StepPattern;

use crate::affinity::Rotation;
use crate::engine;
use crate::host::{self, nproc, Host};
use crate::inproc::access_span;
use crate::reference::Reference;
use crate::spans::Spans;
use crate::stats::{median, median_f64, ratio, wall_clock, Sample, WallClock};
use crate::{harness, timed_setup, Args, Failure, Report};

/// P-RAM processors per session.
pub const N: usize = 16;
/// Shared cells per session.
pub const M: usize = 64;
/// Session schemes, assigned round-robin by session index.
pub const KINDS: [SchemeKind; 3] = [SchemeKind::Hashed, SchemeKind::Ida, SchemeKind::HpDmmpc];
/// Steps per `STEPN`.
pub const STEPN_K: u64 = 8;
/// `STEPN` commands per session.
pub const STEPNS_PER_SESSION: u32 = 16;
/// Sessions each connection keeps open at once.
pub const SLOTS_PER_CONN: usize = 2;
/// The exact counters sum over sessions `0..EXACT_SESSIONS`, which every
/// run completes however short its clock.
pub const EXACT_SESSIONS: u64 = 60;
/// First session of the traced phase (apart from the untraced ones).
const TRACED_FIRST: u64 = 1 << 32;
/// Sessions the ledger drives through each level per round.
const LEDGER_SESSIONS: u64 = 12;
/// Bounds on ledger rounds (the clock decides between them).
const LEDGER_ROUNDS: (usize, usize) = (3, 200);
/// Calls per timed batch of the standalone parse / render measurements.
const MICRO_CALLS: u32 = 20_000;

/// Spec of session `index` under run seed `seed`.
pub fn session_spec(seed: u64, index: u64) -> SessionSpec {
    SessionSpec::new(N, M, KINDS[(index % 3) as usize])
        .seed(mix64(seed ^ mix64(index + 1)))
        .verify(VerifyMode::Ring)
}

fn open_frame(spec: &SessionSpec) -> String {
    format!(
        "OPEN {} {} {} seed={} verify={}\n",
        spec.n,
        spec.m,
        spec.kind.name(),
        spec.seed,
        spec.verify.name()
    )
}

fn stepn_frame(sid: u64) -> String {
    format!("STEPN {sid} {STEPN_K} uniform\n")
}

/// The value of `key=` in a reply line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

fn num(line: &str, key: &str) -> Result<u64, Failure> {
    field(line, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| Failure::Incorrect(format!("reply without {key}=: {line}")))
}

fn trace_hash(line: &str) -> Result<u64, Failure> {
    field(line, "trace")
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| Failure::Incorrect(format!("reply without trace=: {line}")))
}

/// Service shards. With one client connection this keeps the serving
/// path to three busy threads (client, server connection, shard), which
/// run on one CPU at a time, so the figures do not depend on how many
/// cores the host has or where its scheduler puts the threads.
pub const SHARDS: usize = 1;
/// Client threads, one connection each.
pub const CLIENTS: usize = 1;

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    fn send(&mut self, frame: &str) -> std::io::Result<()> {
        self.writer.write_all(frame.as_bytes())
    }

    /// The next reply line (an error at end of stream).
    fn recv(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }

    /// Send a frame and wait for its reply.
    fn call(&mut self, frame: &str) -> std::io::Result<&str> {
        self.send(frame)?;
        self.recv()
    }

    /// Say goodbye so the server's connection thread exits.
    fn quit(mut self) {
        let _ = self.call("QUIT\n");
    }
}

/// The service, its TCP front end, and the client connections.
struct Rig {
    service: Service,
    server: Server,
    conns: Vec<Conn>,
}

impl Rig {
    fn start() -> Result<Rig, Failure> {
        let service = Service::start(ServiceConfig::with_shards(SHARDS)).map_err(harness)?;
        let server = Server::bind("127.0.0.1:0", service.handle()).map_err(harness)?;
        let conns = (0..CLIENTS)
            .map(|_| Conn::connect(server.local_addr()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(harness)?;
        Ok(Rig {
            service,
            server,
            conns,
        })
    }

    fn stop(self) {
        for c in self.conns {
            c.quit();
        }
        self.server.shutdown();
        self.service.shutdown();
    }
}

/// A session a client drove to `CLOSE`.
#[derive(Debug, Clone)]
struct Done {
    index: u64,
    stepns_ok: u32,
    steps: u64,
    phases: u64,
    cycles: u64,
    messages: u64,
    verify_ops: u64,
    verdict: String,
    trace: u64,
}

impl Done {
    fn new(index: u64) -> Done {
        Done {
            index,
            stepns_ok: 0,
            steps: 0,
            phases: 0,
            cycles: 0,
            messages: 0,
            verify_ops: 0,
            verdict: String::new(),
            trace: 0,
        }
    }
}

/// What a session slot waits for.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Want {
    Open,
    Step(u32),
    Verify,
    Close,
}

struct Slot {
    want: Want,
    sid: u64,
    sent: Instant,
    done: Done,
}

/// Which sessions a phase runs.
#[derive(Debug, Clone, Copy)]
enum Sessions {
    /// Exactly sessions `0..EXACT_SESSIONS`: the warm-up every run
    /// completes, over which the exact counters are summed.
    Prefix,
    /// Sessions `first..`, opened until `budget` has passed.
    Timed { first: u64, budget: Duration },
}

/// Session numbering shared by a phase's clients.
struct Schedule {
    start: Instant,
    sessions: Sessions,
    next: AtomicU64,
}

impl Schedule {
    fn new(sessions: Sessions) -> Schedule {
        let first = match sessions {
            Sessions::Prefix => 0,
            Sessions::Timed { first, .. } => first,
        };
        Schedule {
            start: Instant::now(),
            sessions,
            next: AtomicU64::new(first),
        }
    }

    /// The next session to open, if the phase has not ended.
    fn take(&self) -> Option<u64> {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let open = match self.sessions {
            Sessions::Prefix => i < EXACT_SESSIONS,
            Sessions::Timed { budget, .. } => self.start.elapsed() < budget,
        };
        open.then_some(i)
    }
}

/// One client thread's results.
struct ClientOut {
    samples: Vec<Sample>,
    /// The reference kernel's times (ns).
    reference: Vec<u64>,
    /// Time spent in pauses for the kernel.
    paused: Duration,
    attempted: u64,
    failed: u64,
    done: Vec<Done>,
    spans: Spans,
}

/// Drive sessions over one connection until the schedule stops.
///
/// When the reference kernel is due, the client holds back its next frames
/// until every reply in flight has arrived, times the kernel with the
/// service idle (it has no other client), then sends what it held. Sample
/// times leave the pauses out.
fn client(
    conn: &mut Conn,
    sched: &Schedule,
    seed: u64,
    epoch: Instant,
    traced: bool,
    client_id: u64,
) -> Result<ClientOut, Failure> {
    let mut out = ClientOut {
        samples: Vec::with_capacity(1 << 16),
        reference: Vec::new(),
        paused: Duration::ZERO,
        attempted: 0,
        failed: 0,
        done: Vec::new(),
        spans: Spans::new(epoch),
    };
    let mut slots: Vec<Option<Slot>> = (0..SLOTS_PER_CONN).map(|_| None).collect();
    let mut inflight: VecDeque<usize> = VecDeque::new();
    let send = |conn: &mut Conn, slot: &mut Slot, frame: &str, out: &mut ClientOut| {
        out.attempted += 1;
        slot.sent = Instant::now();
        conn.send(frame)
    };
    for (s, entry) in slots.iter_mut().enumerate() {
        if let Some(index) = sched.take() {
            let slot = entry.insert(Slot {
                want: Want::Open,
                sid: 0,
                sent: Instant::now(),
                done: Done::new(index),
            });
            send(
                conn,
                slot,
                &open_frame(&session_spec(seed, index)),
                &mut out,
            )
            .map_err(harness)?;
            inflight.push_back(s);
        }
    }
    let mut requests = 0u64;
    let mut kernel = Reference::new();
    let mut held: Vec<(usize, String)> = Vec::with_capacity(SLOTS_PER_CONN);
    while let Some(s) = inflight.pop_front() {
        let line = match conn.recv() {
            Ok(l) => l.to_string(),
            Err(_) => {
                // A dropped connection fails everything still in flight.
                out.failed += 1 + inflight.len() as u64;
                break;
            }
        };
        let now = Instant::now();
        let slot = slots[s].as_mut().expect("in-flight slot is occupied");
        let ok = line.starts_with("OK");
        out.failed += u64::from(!ok);
        let frame = match slot.want {
            Want::Open if ok => {
                slot.sid = num(&line, "sid")?;
                slot.want = Want::Step(0);
                Some(stepn_frame(slot.sid))
            }
            Want::Open => None,
            Want::Step(j) => {
                let lat = (now - slot.sent).as_nanos() as u64;
                let end = (now - sched.start - out.paused).as_nanos() as u64;
                if traced {
                    let (t0, t1) = (out.spans.at(slot.sent), out.spans.at(now));
                    out.spans
                        .push("client.stepn", t0, t1, None, (client_id << 40) | requests);
                }
                requests += 1;
                let executed = if ok { num(&line, "executed")? } else { 0 };
                out.samples.push(Sample {
                    end,
                    lat,
                    steps: executed,
                });
                if ok {
                    let d = &mut slot.done;
                    d.stepns_ok += 1;
                    d.steps += executed;
                    d.phases += num(&line, "phases")?;
                    d.cycles += num(&line, "cycles")?;
                    d.messages += num(&line, "messages")?;
                }
                if j + 1 < STEPNS_PER_SESSION {
                    slot.want = Want::Step(j + 1);
                    Some(stepn_frame(slot.sid))
                } else {
                    slot.want = Want::Verify;
                    Some(format!("VERIFY {}\n", slot.sid))
                }
            }
            Want::Verify => {
                if ok {
                    slot.done.verify_ops = num(&line, "ops")?;
                    slot.done.verdict = field(&line, "verdict").unwrap_or("").to_string();
                    if field(&line, "vop").is_some() {
                        slot.done.verdict = format!("violation ({line})");
                    }
                }
                slot.want = Want::Close;
                Some(format!("CLOSE {}\n", slot.sid))
            }
            Want::Close => {
                if ok {
                    slot.done.trace = trace_hash(&line)?;
                    out.done.push(slot.done.clone());
                }
                None
            }
        };
        let frame = match frame {
            Some(f) => Some(f),
            // The slot's session is over: open the next one, if any.
            None => sched.take().map(|index| {
                slot.want = Want::Open;
                slot.done = Done::new(index);
                open_frame(&session_spec(seed, index))
            }),
        };
        if let Some(frame) = frame {
            if kernel.due(now) {
                held.push((s, frame));
            } else {
                if send(conn, slot, &frame, &mut out).is_err() {
                    out.failed += 1 + inflight.len() as u64;
                    break;
                }
                inflight.push_back(s);
            }
        }
        if inflight.is_empty() && !held.is_empty() {
            out.paused += kernel.run();
            let mut pending = held.drain(..);
            while let Some((s, frame)) = pending.next() {
                let slot = slots[s].as_mut().expect("held slot is occupied");
                if send(conn, slot, &frame, &mut out).is_err() {
                    out.failed += 1 + (inflight.len() + pending.len()) as u64;
                    inflight.clear();
                    break;
                }
                inflight.push_back(s);
            }
        }
    }
    out.reference = kernel.times().to_vec();
    Ok(out)
}

/// One closed-loop phase over every connection.
struct PhaseOut {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    done: Vec<Done>,
    /// Time spent measuring, pauses for the reference kernel left out.
    active: Duration,
    reference: Vec<u64>,
    spans: Spans,
}

impl PhaseOut {
    fn wall_clock(&self) -> WallClock {
        wall_clock(
            &self.samples,
            self.active.as_nanos() as u64,
            &self.reference,
        )
    }
}

fn phase(
    rig: &mut Rig,
    seed: u64,
    sessions: Sessions,
    traced: bool,
    epoch: Instant,
) -> Result<PhaseOut, Failure> {
    let sched = Schedule::new(sessions);
    let outs: Vec<Result<ClientOut, Failure>> = std::thread::scope(|sc| {
        let handles: Vec<_> = rig
            .conns
            .iter_mut()
            .enumerate()
            .map(|(id, conn)| {
                let sched = &sched;
                sc.spawn(move || client(conn, sched, seed, epoch, traced, id as u64))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut p = PhaseOut {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        done: Vec::new(),
        active: sched.start.elapsed(),
        reference: Vec::new(),
        spans: Spans::new(epoch),
    };
    for o in outs {
        let o = o?;
        p.samples.extend(o.samples);
        p.reference.extend(o.reference);
        // One client: its pauses idle the whole service.
        p.active = p.active.saturating_sub(o.paused);
        p.attempted += o.attempted;
        p.failed += o.failed;
        p.done.extend(o.done);
        p.spans.extend(o.spans);
    }
    if p.samples.is_empty() {
        return Err(Failure::Harness("no STEPN completed".into()));
    }
    Ok(p)
}

/// Replay one session on this thread: its final trace hash and checked ops.
fn replay(spec: SessionSpec, stepns: u32) -> Result<(u64, u64), Failure> {
    let clock = SimClock::monotonic();
    let hist = SharedHistogram::new();
    let mut s = Session::open(spec, clock.now()).map_err(harness)?;
    for _ in 0..stepns {
        s.step(&WorkloadSpec::Uniform, STEPN_K, &hist, &clock)
            .map_err(harness)?;
    }
    Ok((s.trace(), s.verify_report().ops))
}

/// Every session verified clean and hashes like its bench-thread replay.
fn check(done: &[Done], seed: u64) -> Result<(), Failure> {
    for d in done {
        if d.verdict != "consistent" {
            return Err(Failure::Incorrect(format!(
                "session {}: VERIFY verdict {:?}",
                d.index, d.verdict
            )));
        }
    }
    let workers = nproc();
    let chunk = done.len().div_ceil(workers).max(1);
    std::thread::scope(|sc| {
        let handles: Vec<_> = done
            .chunks(chunk)
            .map(|part| {
                sc.spawn(move || -> Result<(), Failure> {
                    for d in part {
                        let (trace, ops) = replay(session_spec(seed, d.index), d.stepns_ok)?;
                        if trace != d.trace || ops != d.verify_ops {
                            return Err(Failure::Incorrect(format!(
                                "session {}: server trace {:016x} / {} ops, replay {:016x} / {} ops",
                                d.index, d.trace, d.verify_ops, trace, ops
                            )));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("replay thread panicked"))
    })
}

/// Exact counters summed over sessions `0..EXACT_SESSIONS`.
#[derive(Debug, Default, Clone, Copy)]
struct Exact {
    sessions: u64,
    steps: u64,
    phases: u64,
    cycles: u64,
    messages: u64,
    verify_ops: u64,
}

fn exact(done: &[Done]) -> Exact {
    let mut e = Exact::default();
    for d in done.iter().filter(|d| d.index < EXACT_SESSIONS) {
        e.sessions += 1;
        e.steps += d.steps;
        e.phases += d.phases;
        e.cycles += d.cycles;
        e.messages += d.messages;
        e.verify_ops += d.verify_ops;
    }
    e
}

/// Run `serve-tcp`.
pub fn run(args: &Args) -> Result<Report, Failure> {
    let (mut rig, setup_s, raw_setup_s) = timed_setup(Rig::start, Rig::stop)?;
    let result = measure(&mut rig, args, setup_s);
    rig.stop();
    let mut r = result?;
    r.host = Host::probe(SHARDS, CLIENTS);
    r.notes
        .push(format!("setup_s as measured {raw_setup_s:.6}"));
    Ok(r)
}

fn measure(rig: &mut Rig, args: &Args, setup_s: f64) -> Result<Report, Failure> {
    let epoch = Instant::now();
    let secs = args.seconds;
    let budget = Duration::from_secs_f64(if args.trace { secs / 2.0 } else { secs });
    // The fixed prefix warms the service up and carries the exact
    // counters; peak memory is read after it, at a fixed amount of work.
    let rotation = Rotation::start();
    let prefix = phase(rig, args.seed, Sessions::Prefix, false, epoch)?;
    let rss_mb = host::peak_rss_mb();
    let first = EXACT_SESSIONS;
    let main = phase(
        rig,
        args.seed,
        Sessions::Timed { first, budget },
        false,
        epoch,
    )?;
    drop(rotation);
    check(&prefix.done, args.seed)?;
    check(&main.done, args.seed)?;

    let mut r = Report::new(Host::probe(0, 0));
    r.attempted = prefix.attempted + main.attempted;
    r.failed = prefix.failed + main.failed;
    let q = main.wall_clock();
    let e = exact(&prefix.done);
    if e.sessions != EXACT_SESSIONS {
        r.notes.push(format!(
            "only {} of the first {EXACT_SESSIONS} sessions completed; exact counters are partial",
            e.sessions
        ));
    }
    r.set_wall_clock(&q);
    r.set("peak_rss_mb", rss_mb);
    r.set("cycles_per_step", e.cycles as f64 / e.steps as f64);
    r.set("messages_per_step", e.messages as f64 / e.steps as f64);
    r.set("phases_per_step", e.phases as f64 / e.steps as f64);
    r.set("setup_s", setup_s);
    r.notes.push(format!(
        "{} sessions verified consistent and replayed to equal trace hashes",
        prefix.done.len() + main.done.len()
    ));

    if args.trace {
        let traced = Sessions::Timed {
            first: TRACED_FIRST,
            budget: Duration::from_secs_f64(secs / 4.0),
        };
        let rotation = Rotation::start();
        let tphase = phase(rig, args.seed, traced, true, epoch)?;
        r.attempted += tphase.attempted;
        r.failed += tphase.failed;
        let traced_sps = tphase.wall_clock().steps_per_sec();
        let traced_sessions = tphase.done.len();
        let mut spans = tphase.spans;
        let ledger_budget = Duration::from_secs_f64(secs / 4.0);
        let l = ledger(rig, args.seed, ledger_budget, &mut spans)?;
        drop(rotation);
        check(&tphase.done, args.seed)?;
        // The ledger's times are as measured, so the residual is too.
        let observed = q.raw_p50 as f64;
        layer_metrics(&mut r, &l, &spans, observed);
        r.set("verify.checked_ops", e.verify_ops as f64);
        r.set(
            "bench.trace_overhead_frac",
            1.0 - traced_sps / q.steps_per_sec(),
        );
        r.set(
            "server.queue_full_total",
            queue_full_total(&rig.service.handle()) as f64,
        );
        r.set(
            "server.parse_ns",
            micro_ns(|| {
                std::hint::black_box(protocol::parse(std::hint::black_box(
                    "STEPN 123456 8 uniform",
                )))
                .is_ok()
            }),
        );
        let summary = sample_summary();
        r.set(
            "server.render_ns",
            micro_ns(|| !protocol::render_step(std::hint::black_box(&summary)).is_empty()),
        );
        r.notes.push(format!(
            "untraced {:.1} steps/s, traced {traced_sps:.1} steps/s over {traced_sessions} \
             sessions; ledger: {} rounds over {LEDGER_SESSIONS} sessions",
            q.steps_per_sec(),
            l.rounds
        ));
        if !l.parts_match {
            r.notes.push(
                "the step-by-step replay diverged from Session's trace hash; its layer split \
                 was measured on equivalent, not identical, steps"
                    .into(),
            );
        }
        r.spans = Some(spans);
    }
    Ok(r)
}

/// Medians and exact counts the ledger produced.
struct Ledger {
    rounds: usize,
    /// Median `STEPN` time per level (ns): tcp, protocol, queue, session.
    levels: [f64; 4],
    /// Median time per `STEPN` the step-by-step replay spent inside the
    /// layers (generation, access, verifier) (ns).
    work: f64,
    /// Steps the step-by-step replay ran.
    parts_steps: u64,
    /// Scheme counters and allocations over the first round.
    first: FirstRound,
    /// Whether the step-by-step replay hashed like `Session`.
    parts_match: bool,
}

#[derive(Debug, Default, Clone, Copy)]
struct FirstRound {
    steps: u64,
    stage1_phases: u64,
    stage2_phases: u64,
    stage1_leftover: u64,
    copies: u64,
    killed: u64,
    allocs: u64,
    cache_hits: u64,
    cache_misses: u64,
}

const LEVELS: [&str; 4] = [
    "ledger.tcp.stepn",
    "ledger.protocol.stepn",
    "ledger.queue.stepn",
    "ledger.session.stepn",
];

/// Drive the ledger sessions through every level, one request at a time,
/// for `budget` (within [`LEDGER_ROUNDS`]).
fn ledger(
    rig: &mut Rig,
    seed: u64,
    budget: Duration,
    spans: &mut Spans,
) -> Result<Ledger, Failure> {
    let start = Instant::now();
    let mut first = FirstRound::default();
    let mut parts_match = true;
    let mut rounds = 0;
    let mut handle = rig.service.handle();
    while rounds < LEDGER_ROUNDS.0 || (rounds < LEDGER_ROUNDS.1 && start.elapsed() < budget) {
        for index in 0..LEDGER_SESSIONS {
            let spec = session_spec(seed, index);
            let want = ledger_session(spec.clone(), spans)?;
            let tcp = ledger_tcp(&mut rig.conns[0], &spec, spans)?;
            let proto = ledger_protocol(&mut handle, &spec, spans)?;
            let queue = ledger_queue(&handle, spec.clone(), spans)?;
            for (level, got) in [("tcp", tcp), ("protocol", proto), ("queue", queue)] {
                if got != want {
                    return Err(Failure::Incorrect(format!(
                        "ledger session {index}: {level} trace {got:016x}, Session replay {want:016x}"
                    )));
                }
            }
            let (trace, counts) = ledger_parts(spec, spans, rounds == 0)?;
            parts_match &= trace == want;
            if rounds == 0 {
                first = first.plus(&counts);
            }
        }
        rounds += 1;
    }
    let med = |name: &str| median(&mut spans.durations(name)) as f64;
    let mut work = spans.child_time("ledger.parts.stepn");
    Ok(Ledger {
        rounds,
        levels: LEVELS.map(med),
        work: median(&mut work) as f64,
        parts_steps: first.steps * rounds as u64,
        first,
        parts_match,
    })
}

impl FirstRound {
    fn plus(mut self, o: &FirstRound) -> FirstRound {
        self.steps += o.steps;
        self.stage1_phases += o.stage1_phases;
        self.stage2_phases += o.stage2_phases;
        self.stage1_leftover += o.stage1_leftover;
        self.copies += o.copies;
        self.killed += o.killed;
        self.allocs += o.allocs;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self
    }
}

/// Level 1: the session's frames over TCP; returns the `CLOSE` hash.
fn ledger_tcp(conn: &mut Conn, spec: &SessionSpec, spans: &mut Spans) -> Result<u64, Failure> {
    let sid = num(conn.call(&open_frame(spec)).map_err(harness)?, "sid")?;
    let frame = stepn_frame(sid);
    for j in 0..STEPNS_PER_SESSION {
        let t0 = Instant::now();
        let ok = conn.call(&frame).map_err(harness)?.starts_with("OK");
        let t1 = Instant::now();
        if !ok {
            return Err(Failure::Harness(format!(
                "ledger STEPN {j} failed over TCP"
            )));
        }
        spans.push(LEVELS[0], spans.at(t0), spans.at(t1), None, sid);
    }
    conn.call(&format!("VERIFY {sid}\n")).map_err(harness)?;
    trace_hash(conn.call(&format!("CLOSE {sid}\n")).map_err(harness)?)
}

/// Level 2: the same frames through `protocol::parse` + `execute`.
fn ledger_protocol(
    handle: &mut ServiceHandle,
    spec: &SessionSpec,
    spans: &mut Spans,
) -> Result<u64, Failure> {
    let mut exec = |line: &str| -> Result<String, Failure> {
        let frame = protocol::parse(line.trim_end()).map_err(Failure::Harness)?;
        protocol::execute(handle, frame).ok_or_else(|| Failure::Harness("unexpected QUIT".into()))
    };
    let sid = num(&exec(&open_frame(spec))?, "sid")?;
    let frame = stepn_frame(sid);
    for _ in 0..STEPNS_PER_SESSION {
        let t0 = Instant::now();
        let reply = exec(&frame)?;
        let t1 = Instant::now();
        if !reply.starts_with("OK") {
            return Err(Failure::Harness(format!("ledger STEPN failed: {reply}")));
        }
        spans.push(LEVELS[1], spans.at(t0), spans.at(t1), None, sid);
    }
    exec(&format!("VERIFY {sid}\n"))?;
    trace_hash(&exec(&format!("CLOSE {sid}\n"))?)
}

/// Level 3: `ServiceHandle::step_many` on the session alone.
fn ledger_queue(
    handle: &ServiceHandle,
    spec: SessionSpec,
    spans: &mut Spans,
) -> Result<u64, Failure> {
    let sid = handle.open(spec).map_err(harness)?.sid;
    for _ in 0..STEPNS_PER_SESSION {
        let t0 = Instant::now();
        let sum = handle
            .step_many(&[sid], &WorkloadSpec::Uniform, STEPN_K)
            .map_err(harness)?;
        let t1 = Instant::now();
        if sum.errors > 0 {
            return Err(Failure::Harness("ledger step_many failed".into()));
        }
        spans.push(LEVELS[2], spans.at(t0), spans.at(t1), None, sid);
    }
    handle.verify(sid).map_err(harness)?;
    Ok(handle.close(sid).map_err(harness)?.trace)
}

/// Level 4: `Session::step` on this thread; its hash is the reference the
/// other levels must match.
fn ledger_session(spec: SessionSpec, spans: &mut Spans) -> Result<u64, Failure> {
    let clock = SimClock::monotonic();
    let hist = SharedHistogram::new();
    let req = spec.seed;
    let mut s = Session::open(spec, clock.now()).map_err(harness)?;
    for _ in 0..STEPNS_PER_SESSION {
        let t0 = Instant::now();
        s.step(&WorkloadSpec::Uniform, STEPN_K, &hist, &clock)
            .map_err(harness)?;
        let t1 = Instant::now();
        spans.push(LEVELS[3], spans.at(t0), spans.at(t1), None, req);
    }
    Ok(s.trace())
}

/// Level 5: the layers inside `Session::step`, called one by one on a
/// scheme built like the session's, with the phase executor timed where
/// the scheme has one. Returns the trace hash `Session` would compute and
/// the first-round counters.
fn ledger_parts(
    spec: SessionSpec,
    spans: &mut Spans,
    count: bool,
) -> Result<(u64, FirstRound), Failure> {
    let (mut scheme, log) =
        engine::build(spec.kind, spec.n, spec.m, spec.seed, Some(spans.epoch()))
            .map_err(harness)?;
    // The session's workload stream: derived from the spec seed the way
    // `Session::open` derives it.
    let mut rng = rng_from_seed(mix64(spec.seed ^ 0x5E55_1011));
    let mut verifier = SessionVerifier::new(spec.verify, spec.m);
    let mut pattern = StepPattern::default();
    let mut scratch = Vec::new();
    let mut trace = FNV_OFFSET;
    let mut c = FirstRound::default();
    let mut proto = ProtocolStats::default();
    let cache0 = scheme.decode_cache().unwrap_or_default();
    let access_name = access_span(spec.kind);
    for _ in 0..STEPNS_PER_SESSION {
        let cmd = spans.push(
            "ledger.parts.stepn",
            spans.at(Instant::now()),
            0,
            None,
            spec.seed,
        );
        for _ in 0..STEPN_K {
            let g0 = Instant::now();
            workloads::uniform_into(spec.n, spec.m, 0.3, &mut rng, &mut scratch, &mut pattern);
            let a0 = Instant::now();
            let allocs0 = metrics::counting::thread_allocations();
            let res = scheme.step(&pattern.reads, &pattern.writes);
            let allocs1 = metrics::counting::thread_allocations();
            proto.accumulate(&scheme.last_step().protocol);
            let v0 = Instant::now();
            verifier.record_step(0, &pattern.reads, &res.read_values, &pattern.writes, |_| {
                false
            });
            let v1 = Instant::now();
            let (g0, a0, v0, v1) = (spans.at(g0), spans.at(a0), spans.at(v0), spans.at(v1));
            spans.push("workloads.gen", g0, a0, Some(cmd), spec.seed);
            let access = spans.push(access_name, a0, v0, Some(cmd), spec.seed);
            if let Some(log) = &log {
                for &(s, e) in log.borrow().iter() {
                    spans.push("core.executor", s, e, Some(access), spec.seed);
                }
                log.borrow_mut().clear();
            }
            spans.push("verify.record", v0, v1, Some(cmd), spec.seed);
            for &v in &res.read_values {
                fnv1a(&mut trace, v as u64);
            }
            fnv1a(&mut trace, res.cost.phases);
            fnv1a(&mut trace, res.cost.cycles);
            fnv1a(&mut trace, res.cost.messages);
            c.allocs += allocs1 - allocs0;
            c.steps += 1;
        }
        let end = spans.at(Instant::now());
        spans.set_end(cmd, end);
    }
    if count {
        let p = proto;
        c.stage1_phases = p.stage1_phases;
        c.stage2_phases = p.stage2_phases;
        c.stage1_leftover = p.stage1_leftover as u64;
        c.copies = p.copies_accessed;
        c.killed = p.killed_attempts;
        let (hits, misses) = scheme.decode_cache().unwrap_or_default();
        c.cache_hits = hits - cache0.0;
        c.cache_misses = misses - cache0.1;
    }
    Ok((trace, c))
}

/// Per-layer metrics from the ledger and the traced spans.
fn layer_metrics(r: &mut Report, l: &Ledger, spans: &Spans, observed_p50: f64) {
    let t = spans.totals();
    let steps = l.parts_steps as f64;
    let total = |name: &str| t.get(name).map_or(0, |x| x.total_ns) as f64;
    let selft = |name: &str| t.get(name).map_or(0, |x| x.self_ns) as f64;
    let access_names = KINDS.map(access_span);
    let access: f64 = access_names.iter().map(|n| total(n)).sum();
    let access_self: f64 = access_names.iter().map(|n| selft(n)).sum();
    // Steps per scheme: sessions cycle through KINDS, so each kind ran a
    // third of the ledger sessions.
    let per_kind = steps / KINDS.len() as f64;
    r.set("workloads.gen_ns_per_step", total("workloads.gen") / steps);
    r.set("core.access_ns_per_step", access / steps);
    r.set("core.protocol_self_ns_per_step", access_self / steps);
    r.set("core.executor_ns_per_step", total("core.executor") / steps);
    for (kind, name) in KINDS.iter().zip(access_names) {
        let metric = match kind {
            SchemeKind::Hashed => "core.access_ns_per_step.hashed",
            SchemeKind::Ida => "core.access_ns_per_step.ida",
            _ => "core.access_ns_per_step.hp-dmmpc",
        };
        r.set(metric, total(name) / per_kind);
    }
    r.set("verify.record_ns_per_step", total("verify.record") / steps);
    let f = &l.first;
    let fs = f.steps as f64;
    r.set("core.stage1_phases_per_step", f.stage1_phases as f64 / fs);
    r.set("core.stage2_phases_per_step", f.stage2_phases as f64 / fs);
    r.set(
        "core.stage1_leftover_per_step",
        f.stage1_leftover as f64 / fs,
    );
    r.set(
        "core.useful_attempt_ratio",
        ratio(f.copies as f64, (f.copies + f.killed) as f64),
    );
    r.set("core.allocs_per_step", f.allocs as f64 / fs);
    r.set(
        "ida.decode_cache_hit_ratio",
        ratio(f.cache_hits as f64, (f.cache_hits + f.cache_misses) as f64),
    );
    r.set("mot.route_ns_per_step", 0.0);
    let [tcp, proto, queue, session] = l.levels;
    let selfs = [
        tcp - proto,
        proto - queue,
        queue - session,
        session - l.work,
    ];
    for (name, v) in [
        "server.tcp_self_us",
        "server.protocol_self_us",
        "server.queue_self_us",
        "server.session_self_us",
    ]
    .into_iter()
    .zip(selfs)
    {
        r.set(name, v / 1e3);
    }
    // The layers' self times add up to the unloaded TCP round trip; what
    // the loaded run's median exceeds that by is waiting no layer owns.
    let accounted: f64 = selfs.iter().sum::<f64>() + l.work;
    r.set(
        "bench.residual_frac",
        (observed_p50 - accounted) / observed_p50,
    );
}

/// `cr_queue_full_total`, summed over shards, from the `METRICS` text.
fn queue_full_total(handle: &ServiceHandle) -> u64 {
    handle
        .metrics_text()
        .lines()
        .filter(|l| l.starts_with("cr_queue_full_total"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// A representative `STEPN` reply to render.
fn sample_summary() -> StepSummary {
    StepSummary {
        executed: STEPN_K,
        total_steps: 96,
        phases: 88,
        cycles: 88,
        messages: 1234,
        stage1_cycles: 40,
        stage2_cycles: 48,
        dead_attempts: 0,
        dropped_messages: 0,
        verify_ops: 128,
        verify_truncated: 0,
        verify_violation: false,
        exhausted: false,
    }
}

/// Median ns per call of `f` over five timed batches.
fn micro_ns(mut f: impl FnMut() -> bool) -> f64 {
    let mut per_call: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut ok = true;
            for _ in 0..MICRO_CALLS {
                ok &= f();
            }
            assert!(ok, "standalone protocol call failed");
            t0.elapsed().as_nanos() as f64 / f64::from(MICRO_CALLS)
        })
        .collect();
    median_f64(&mut per_call)
}
