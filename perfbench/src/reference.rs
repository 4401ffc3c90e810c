//! A fixed reference kernel, timed between measurement windows, that gives
//! each run the pace of the host it ran on.
//!
//! A shared host's speed drifts by a quarter or more over minutes, so runs
//! of one build made ten minutes apart differ by more than most
//! regressions. The benchmark therefore pauses the workload every
//! [`EVERY`] (with nothing in flight), times this kernel, and takes the
//! median of those times over the run. The kernel is code of the
//! benchmark's own, so no change to the program moves it; the ratio of its
//! median time to [`NOMINAL_NS`] is the run's pace, and the wall-clock
//! metrics are reported at the nominal pace: throughput multiplied by the
//! pace, latency and set-up time divided by it. A change to the program
//! moves them in the same proportion as the raw figures, which every run
//! prints beside them.
//!
//! The kernel is random read-modify-writes into a 256 KiB table. Between
//! two timings the workload evicts the table from the core's private
//! cache, so a timing also pays for refetching it. Of the kernels tried
//! (pure ALU, this one, the same over 8 and 32 MiB, a mix of this one with
//! 8 MiB reads, pointer chasing over 8 MiB, and 4-stream, 8-stream and
//! branchy variants of this one) it took the most run-to-run
//! drift out of the workloads' figures. It takes out only part of it: the
//! memory-bound `dmmpc-uniform` drifts further than the kernel does.

use std::time::{Duration, Instant};

use crate::stats::median;

/// How often the workload pauses for the kernel.
pub const EVERY: Duration = Duration::from_millis(100);

/// Table entries (`u64`): 256 KiB.
const TABLE: usize = 1 << 15;

/// Updates per timing.
const ITERS: u32 = 32_768;

/// The kernel's time at the nominal pace: a little under its median
/// (145–180 us) on a 2-vCPU Xeon virtual machine at 2.1 GHz, so that
/// figures at the nominal pace read close to raw ones there.
pub const NOMINAL_NS: f64 = 140_000.0;

/// The kernel's state and the times it took.
pub struct Reference {
    table: Vec<u64>,
    state: u64,
    times: Vec<u64>,
    last: Instant,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// A fresh kernel, whose first timing is due [`EVERY`] from now.
    pub fn new() -> Reference {
        Reference {
            table: vec![1; TABLE],
            state: 0x9E37_79B9_7F4A_7C15,
            times: Vec::with_capacity(1024),
            last: Instant::now(),
        }
    }

    /// Whether [`EVERY`] has passed since the last timing (or creation).
    pub fn due(&self, now: Instant) -> bool {
        now - self.last >= EVERY
    }

    /// Time the kernel once and keep the time; returns how long the pause
    /// took, bookkeeping included, for the caller to leave out of its
    /// clock.
    pub fn run(&mut self) -> Duration {
        let t0 = Instant::now();
        let mut x = self.state;
        for _ in 0..ITERS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[x as usize & (TABLE - 1)];
            *slot = slot.wrapping_add(x);
        }
        self.state = std::hint::black_box(x);
        let t1 = Instant::now();
        self.times.push((t1 - t0).as_nanos() as u64);
        self.last = Instant::now();
        self.last - t0
    }

    /// The times taken so far, in nanoseconds.
    pub fn times(&self) -> &[u64] {
        &self.times
    }
}

/// A run's pace from its kernel times: their median over [`NOMINAL_NS`]
/// (above 1 on a host slower than nominal). 1 when the kernel never ran.
pub fn pace(times: &[u64]) -> f64 {
    if times.is_empty() {
        return 1.0;
    }
    median(&mut times.to_vec()) as f64 / NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pace_is_the_median_time_over_nominal() {
        let nominal = NOMINAL_NS as u64;
        assert_eq!(pace(&[]), 1.0);
        assert_eq!(pace(&[3 * nominal, nominal, 2 * nominal]), 2.0);
    }

    #[test]
    fn a_timing_is_due_every_period() {
        let mut r = Reference::new();
        assert!(!r.due(Instant::now()));
        assert!(r.due(Instant::now() + EVERY));
        let paused = r.run();
        assert_eq!(r.times().len(), 1);
        assert!(paused.as_nanos() as u64 >= r.times()[0]);
        assert!(!r.due(Instant::now()));
    }
}
