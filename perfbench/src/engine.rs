//! The schemes the benchmark drives, behind one small trait, and the
//! timing decorator around `cr_core::protocol::PhaseExecutor`.
//!
//! The decorated schemes are assembled through `MajorityScheme::assemble`
//! with exactly the configuration `SimBuilder` derives (the way the
//! fault-injection layer rebuilds a scheme around its own executor), so a
//! traced run executes the same protocol as an untraced one. The benchmark
//! checks that: both must report identical counters on the same steps.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use cr_core::executors::{BipartiteExec, MotExec};
use cr_core::protocol::{
    AttemptOutcome, CopyAttempt, CopyPlacement, FlatPlacement, GridPlacement, PhaseExecutor,
};
use cr_core::{
    BuildError, Hp2dmotLeaves, IdaShared, MajorityScheme, Scheme, SchemeKind, SimBuilder,
    StepReport,
};
use pram_machine::{AccessResult, SharedMemory, StepCost, Word};

use crate::spans::ns_since;

/// Executor calls of one access, as `(start, end)` nanoseconds since the
/// trace epoch. Shared between a [`TimedExec`] and the benchmark, which
/// drains it after every access.
pub type CallLog = Rc<RefCell<Vec<(u64, u64)>>>;

/// Phases one access can run before the log has to grow; reserved up
/// front so the decorator allocates nothing while it measures.
const LOG_CAPACITY: usize = 4096;

/// Times every `execute` call of the wrapped executor.
#[derive(Debug)]
pub struct TimedExec<E> {
    inner: E,
    epoch: Instant,
    log: CallLog,
}

impl<E> TimedExec<E> {
    /// Wrap `inner`, timing against `epoch`; returns the decorator and the
    /// log it fills.
    pub fn new(inner: E, epoch: Instant) -> (TimedExec<E>, CallLog) {
        let log: CallLog = Rc::new(RefCell::new(Vec::with_capacity(LOG_CAPACITY)));
        let exec = TimedExec {
            inner,
            epoch,
            log: Rc::clone(&log),
        };
        (exec, log)
    }
}

impl<E: PhaseExecutor> PhaseExecutor for TimedExec<E> {
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        let t0 = Instant::now();
        let cost = self.inner.execute(attempts, pipeline, outcome);
        let t1 = Instant::now();
        self.log
            .borrow_mut()
            .push((ns_since(self.epoch, t0), ns_since(self.epoch, t1)));
        cost
    }

    fn lossy(&self) -> bool {
        self.inner.lossy()
    }
}

/// What the benchmark needs from any scheme it drives.
pub trait Engine {
    /// One P-RAM step.
    fn step(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult;
    /// Initialise a cell outside step accounting.
    fn init(&mut self, addr: usize, value: Word);
    /// Counters of the most recent step.
    fn last_step(&self) -> StepReport;
    /// Decode-cache `(hits, misses)` of an IDA scheme.
    fn decode_cache(&self) -> Option<(u64, u64)> {
        None
    }
}

impl Engine for Box<dyn Scheme> {
    fn step(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        self.access(reads, writes)
    }
    fn init(&mut self, addr: usize, value: Word) {
        self.poke(addr, value)
    }
    fn last_step(&self) -> StepReport {
        Scheme::last_step(self.as_ref())
    }
}

impl Engine for IdaShared {
    fn step(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        self.access(reads, writes)
    }
    fn init(&mut self, addr: usize, value: Word) {
        self.poke(addr, value)
    }
    fn last_step(&self) -> StepReport {
        Scheme::last_step(self)
    }
    fn decode_cache(&self) -> Option<(u64, u64)> {
        let (_, hits, misses) = self.decode_cache_stats();
        Some((hits, misses))
    }
}

impl<E: PhaseExecutor, P: CopyPlacement> Engine for MajorityScheme<TimedExec<E>, P> {
    fn step(&mut self, reads: &[usize], writes: &[(usize, Word)]) -> AccessResult {
        self.access(reads, writes)
    }
    fn init(&mut self, addr: usize, value: Word) {
        self.poke(addr, value)
    }
    fn last_step(&self) -> StepReport {
        MajorityScheme::last_step(self)
    }
}

/// The scheme `SimBuilder` builds for `(n, m, kind, seed)`, with its phase
/// executor timed when `timed` is given (only the majority schemes have
/// one). IDA is built as its concrete type so its decode cache is visible.
pub fn build(
    kind: SchemeKind,
    n: usize,
    m: usize,
    seed: u64,
    timed: Option<Instant>,
) -> Result<(Box<dyn Engine>, Option<CallLog>), BuildError> {
    let builder = SimBuilder::new(n, m).kind(kind).seed(seed);
    match (kind, timed) {
        (SchemeKind::HpDmmpc, Some(epoch)) => {
            let cfg = builder.fine_config()?.with_pipeline(1);
            let (exec, log) = TimedExec::new(BipartiteExec::new(cfg.modules), epoch);
            let s = MajorityScheme::assemble(cfg, cfg.modules, exec, FlatPlacement);
            Ok((Box::new(s), Some(log)))
        }
        (SchemeKind::Hp2dmotLeaves, Some(epoch)) => {
            let cfg = builder.fine_config()?;
            let side = Hp2dmotLeaves::side_for(&cfg);
            let cfg = cfg.with_modules(side);
            let (exec, log) = TimedExec::new(MotExec::leaves(side), epoch);
            let s = MajorityScheme::assemble(cfg, side, exec, GridPlacement { side });
            Ok((Box::new(s), Some(log)))
        }
        (SchemeKind::Ida, _) => {
            let (modules, b, d) = builder.ida_layout()?;
            Ok((Box::new(IdaShared::new(n, m, modules, b, d)), None))
        }
        _ => Ok((Box::new(builder.build()?), None)),
    }
}
