//! [`FaultyExec`]: the phase-executor decorator that actually breaks things.
//!
//! Wraps any [`PhaseExecutor`] (the complete-interconnect
//! `BipartiteExec`, the routed `MotExec`, …) and applies the plan's
//! machine-level faults to every phase:
//!
//! * attempts aimed at a **dead module** never reach an interconnect —
//!   they come back [`AttemptOutcome::Dead`], so the protocol writes the
//!   copy off instead of retrying forever;
//! * attempts the inner executor *served* may lose their reply to a
//!   **transient message drop** — they come back
//!   [`AttemptOutcome::Killed`] and are retried, costing phases, not data.
//!
//! Link faults are not this decorator's job: they live inside the routed
//! network itself (`MotNetwork::fail_links`). `MotExec` reports them as
//! [`AttemptOutcome::Killed`] — the *route* is per-source, so a retry from
//! a rotated cluster member can route around the dead link; copies
//! unreachable from every source are written off by the protocol's
//! stage-2 budget instead.

use cr_core::protocol::{AttemptOutcome, CopyAttempt, PhaseExecutor};
use pram_machine::StepCost;
use simrng::{rng_from_seed, Rng, Xoshiro256pp};

/// Counters the decorator accumulates across phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultExecStats {
    /// Attempts aimed at a dead module (written off as permanent).
    pub dead_attempts: u64,
    /// Served attempts whose reply was dropped (transient, retried).
    pub dropped_messages: u64,
}

/// A [`PhaseExecutor`] decorator injecting module faults and message drops.
#[derive(Debug)]
pub struct FaultyExec<E> {
    inner: E,
    dead_modules: Vec<bool>,
    message_drop: f64,
    rng: Xoshiro256pp,
    /// Fault counters (read through `MajorityScheme::executor()`).
    pub stats: FaultExecStats,
    /// Scratch for the surviving attempts of the current phase.
    live: Vec<CopyAttempt>,
    live_idx: Vec<usize>,
    /// The inner executor's outcome buffer (this decorator's own buffer
    /// is index-aligned with the *full* attempt list, the inner one with
    /// the surviving sublist).
    inner_outcome: Vec<AttemptOutcome>,
}

impl<E> FaultyExec<E> {
    /// Decorate `inner`. `dead_modules[j]` kills module `j`; `message_drop`
    /// is the per-served-attempt reply-loss probability, drawn
    /// deterministically from `drop_seed`.
    pub fn new(inner: E, dead_modules: Vec<bool>, message_drop: f64, drop_seed: u64) -> Self {
        FaultyExec {
            inner,
            dead_modules,
            message_drop,
            rng: rng_from_seed(drop_seed),
            stats: FaultExecStats::default(),
            live: Vec::new(),
            live_idx: Vec::new(),
            inner_outcome: Vec::new(),
        }
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The wrapped executor, mutably (e.g. to kill links on a `MotExec`'s
    /// network after construction).
    pub fn inner_mut(&mut self) -> &mut E {
        &mut self.inner
    }

    /// Number of dead modules in force.
    pub fn dead_modules(&self) -> usize {
        self.dead_modules.iter().filter(|&&d| d).count()
    }
}

impl<E: PhaseExecutor> PhaseExecutor for FaultyExec<E> {
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost {
        self.live.clear();
        self.live_idx.clear();
        outcome.clear();
        outcome.resize(attempts.len(), AttemptOutcome::Dead);
        for (i, a) in attempts.iter().enumerate() {
            if self
                .dead_modules
                .get(a.module as usize)
                .copied()
                .unwrap_or(false)
            {
                self.stats.dead_attempts += 1; // request sent into the void
            } else {
                self.live.push(*a);
                self.live_idx.push(i);
            }
        }
        let dead_count = (attempts.len() - self.live.len()) as u64;
        if self.live.is_empty() {
            // The phase still happened: requests went out and timed out.
            return StepCost {
                phases: 1,
                cycles: 1,
                messages: dead_count,
            };
        }
        let mut cost = self
            .inner
            .execute(&self.live, pipeline, &mut self.inner_outcome);
        debug_assert_eq!(self.inner_outcome.len(), self.live.len());
        for (k, &i) in self.live_idx.iter().enumerate() {
            let mut out = self.inner_outcome[k];
            if out == AttemptOutcome::Served
                && self.message_drop > 0.0
                && self.rng.chance(self.message_drop)
            {
                // The module served the copy but the reply was lost: the
                // issuing processor cannot tell this from a collision kill,
                // so the protocol retries it. (The store is only updated
                // for attempts reported Served, so no state diverges.)
                out = AttemptOutcome::Killed;
                self.stats.dropped_messages += 1;
            }
            outcome[i] = out;
        }
        cost.messages += dead_count; // one doomed request packet each
        cost
    }

    fn lossy(&self) -> bool {
        // Any injected fault class voids the protocol's progress
        // guarantee, so the protocol must degrade instead of panicking.
        self.message_drop > 0.0 || self.dead_modules.iter().any(|&d| d) || self.inner.lossy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::executors::BipartiteExec;

    fn attempt(req: u32, module: u32) -> CopyAttempt {
        CopyAttempt {
            req,
            copy: 0,
            module,
            row: 0,
            src: req,
        }
    }

    /// Test convenience: run one phase into a fresh outcome buffer.
    fn exec_phase<E: PhaseExecutor>(
        ex: &mut E,
        attempts: &[CopyAttempt],
        pipeline: usize,
    ) -> (Vec<AttemptOutcome>, StepCost) {
        let mut outcome = Vec::new();
        let cost = ex.execute(attempts, pipeline, &mut outcome);
        (outcome, cost)
    }

    #[test]
    fn dead_modules_yield_dead_outcomes() {
        let mut dead = vec![false; 8];
        dead[3] = true;
        let mut ex = FaultyExec::new(BipartiteExec::new(8), dead, 0.0, 1);
        let attempts = vec![attempt(0, 3), attempt(1, 5), attempt(2, 3)];
        let (out, cost) = exec_phase(&mut ex, &attempts, 1);
        assert_eq!(
            out,
            vec![
                AttemptOutcome::Dead,
                AttemptOutcome::Served,
                AttemptOutcome::Dead
            ]
        );
        assert_eq!(ex.stats.dead_attempts, 2);
        // The served attempt costs request + reply; the two dead attempts
        // cost one doomed request packet each.
        assert_eq!(cost.messages, 4);
    }

    #[test]
    fn all_dead_phase_still_costs_time() {
        let mut ex = FaultyExec::new(BipartiteExec::new(4), vec![true; 4], 0.0, 1);
        let (out, cost) = exec_phase(&mut ex, &[attempt(0, 1)], 1);
        assert_eq!(out, vec![AttemptOutcome::Dead]);
        assert_eq!(cost.phases, 1);
        assert_eq!(cost.cycles, 1);
    }

    #[test]
    fn message_drops_are_transient_and_deterministic() {
        let run = |seed: u64| {
            let mut ex = FaultyExec::new(BipartiteExec::new(16), vec![false; 16], 0.5, seed);
            let attempts: Vec<CopyAttempt> = (0..16).map(|i| attempt(i, i)).collect();
            let mut drops = Vec::new();
            for _ in 0..10 {
                let (out, _) = exec_phase(&mut ex, &attempts, 1);
                drops.push(out.iter().filter(|&&o| o == AttemptOutcome::Killed).count());
                assert!(
                    out.iter().all(|&o| o != AttemptOutcome::Dead),
                    "drops are never permanent"
                );
            }
            (drops, ex.stats.dropped_messages)
        };
        let (d1, n1) = run(7);
        let (d2, n2) = run(7);
        assert_eq!(d1, d2);
        assert_eq!(n1, n2);
        assert!(n1 > 0, "p = 0.5 over 160 attempts must drop something");
        let (d3, _) = run(8);
        assert_ne!(d1, d3, "different seed, different drop pattern");
    }

    #[test]
    fn fault_free_decorator_is_transparent() {
        let mut plain = BipartiteExec::new(8);
        let mut wrapped = FaultyExec::new(BipartiteExec::new(8), vec![false; 8], 0.0, 1);
        let attempts = vec![attempt(0, 2), attempt(1, 2), attempt(2, 7)];
        let (a_out, a_cost) = exec_phase(&mut plain, &attempts, 1);
        let (b_out, b_cost) = exec_phase(&mut wrapped, &attempts, 1);
        assert_eq!(a_out, b_out);
        assert_eq!(a_cost, b_cost);
        assert_eq!(wrapped.stats, FaultExecStats::default());
    }
}
