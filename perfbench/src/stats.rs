//! Order statistics over raw samples. Percentiles come from sorting every
//! sample the run took, never from a bucketed histogram.

/// Nearest-rank percentile `p` (0–100] of an ascending-sorted, non-empty
/// sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty sample (sorts it in place).
pub fn median(xs: &mut [u64]) -> u64 {
    xs.sort_unstable();
    percentile(xs, 50.0)
}

/// Median of a non-empty `f64` sample (sorts it in place).
pub fn median_f64(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    xs.sort_by(f64::total_cmp);
    xs[(xs.len() - 1) / 2]
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One completed request: when it finished (ns since the timed run
/// began), how long it took (ns), and the P-RAM steps it completed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time.
    pub end: u64,
    /// Latency.
    pub lat: u64,
    /// Steps completed.
    pub steps: u64,
}

/// Shortest span of completions one throughput window covers.
pub const WINDOW_NS: u64 = 100_000_000;

/// Wall-clock statistics over a whole run.
///
/// Machines shared with other tenants change speed from one second to the
/// next, in both directions: a run sees stretches up to 2x slower and
/// bursts up to 1.7x faster than its typical pace. Both are noise, so the
/// run is cut into windows of at least [`WINDOW_NS`], and the throughput
/// and the median latency are the medians of the windows' own: every
/// window counts alike, where pooling every request would weigh a fast
/// window by the extra requests it completed. A code change that slows
/// every step moves these medians as much as the step; one that only adds
/// rare stalls shows in the whole-run mean, printed beside them, and in
/// the tail, which is taken over every request of the run. Drift over
/// minutes, which no single run can average out, is taken out by the
/// run's pace (see [`crate::reference`]).
#[derive(Debug, Clone, Copy)]
pub struct WallClock {
    /// Median of the windows' steps per second, as measured.
    pub raw_steps_per_sec: f64,
    /// Median of the windows' median request latencies (ns), as measured.
    pub raw_p50: u64,
    /// 99th-percentile latency (ns) of every request, as measured.
    pub raw_p99: u64,
    /// Requests behind the percentiles.
    pub samples: usize,
    /// Windows behind the medians.
    pub windows: usize,
    /// Steps per second over the whole run, as measured, for reference.
    pub all_steps_per_sec: f64,
    /// How much slower than nominal the host ran the reference kernel.
    pub pace: f64,
}

impl WallClock {
    /// Median windowed throughput at the nominal pace.
    pub fn steps_per_sec(&self) -> f64 {
        self.raw_steps_per_sec * self.pace
    }

    /// Median windowed latency (ns) at the nominal pace.
    pub fn p50_ns(&self) -> f64 {
        self.raw_p50 as f64 / self.pace
    }

    /// 99th-percentile latency (ns) at the nominal pace.
    pub fn p99_ns(&self) -> f64 {
        self.raw_p99 as f64 / self.pace
    }
}

/// One window of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Steps per second completed in the window.
    pub rate: f64,
    /// Median latency (ns) of the requests that completed in it.
    pub p50: u64,
}

/// Every window of `samples` (ordered by completion or not).
///
/// A window starts where the previous one ended, at a request's
/// completion, and closes at the first completion at least [`WINDOW_NS`]
/// later; its throughput is the steps completed after its start divided by
/// its length. Windows thus end on completions rather than on a clock
/// grid, so a window's rate is not quantised to whole steps per grid cell.
/// The tail after the last whole window is left out unless there is no
/// whole window.
pub fn windows(samples: &[Sample]) -> Vec<Window> {
    let mut by_end: Vec<&Sample> = samples.iter().collect();
    by_end.sort_unstable_by_key(|s| s.end);
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut steps = 0u64;
    let mut lat = Vec::new();
    let mut last = 0u64;
    for s in by_end {
        last = s.end;
        steps += s.steps;
        lat.push(s.lat);
        if s.end >= start + WINDOW_NS {
            out.push(Window {
                rate: steps as f64 / ((s.end - start) as f64 / 1e9),
                p50: median(&mut lat),
            });
            start = s.end;
            steps = 0;
            lat.clear();
        }
    }
    if out.is_empty() && !lat.is_empty() {
        out.push(Window {
            rate: steps as f64 / (last.max(1) as f64 / 1e9),
            p50: median(&mut lat),
        });
    }
    out
}

/// Whole-run wall-clock figures of `samples`, taken over `active_ns` of
/// measuring (pauses for the reference kernel left out), with the
/// reference kernel's times from the same run.
pub fn wall_clock(samples: &[Sample], active_ns: u64, reference_ns: &[u64]) -> WallClock {
    assert!(!samples.is_empty(), "no requests completed");
    let w = windows(samples);
    let mut rates: Vec<f64> = w.iter().map(|w| w.rate).collect();
    let mut p50s: Vec<u64> = w.iter().map(|w| w.p50).collect();
    let mut lat: Vec<u64> = samples.iter().map(|s| s.lat).collect();
    lat.sort_unstable();
    let all_steps: u64 = samples.iter().map(|s| s.steps).sum();
    WallClock {
        windows: w.len(),
        raw_steps_per_sec: median_f64(&mut rates),
        raw_p50: median(&mut p50s),
        raw_p99: percentile(&lat, 99.0),
        samples: lat.len(),
        all_steps_per_sec: all_steps as f64 / (active_ns.max(1) as f64 / 1e9),
        pace: crate::reference::pace(reference_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figures_are_medians_over_windows() {
        // Thirty windows' worth of one-step requests, 10 per window, except
        // that windows 3 and 17 complete 40 (a fast burst) and window 9
        // completes 2 (a stall). Window w's requests take 5 + w ns.
        let mut samples = Vec::new();
        for w in 0..30u64 {
            let per = match w {
                3 | 17 => 40,
                9 => 2,
                _ => 10,
            };
            for i in 0..per {
                let end = w * WINDOW_NS + (i + 1) * (WINDOW_NS / per);
                samples.push(Sample {
                    end,
                    lat: 5 + w,
                    steps: 1,
                });
            }
        }
        assert_eq!(windows(&samples).len(), 30);
        let secs = WINDOW_NS as f64 / 1e9;
        let nominal = crate::reference::NOMINAL_NS as u64;
        let w = wall_clock(&samples, 30 * WINDOW_NS, &[2 * nominal, 2 * nominal]);
        assert!((w.raw_steps_per_sec - 10.0 / secs).abs() < 1e-6);
        assert!((w.steps_per_sec() - 20.0 / secs).abs() < 1e-6);
        // The windows' medians are 5..=34; pooling every request would
        // have given 20, pulled up by the bursts' extra requests.
        assert_eq!((w.raw_p50, w.p50_ns()), (19, 9.5));
        assert_eq!((w.windows, w.samples), (30, 352));
        let all = 352.0 / (30.0 * secs);
        assert!((w.all_steps_per_sec - all).abs() < 1e-6);
    }

    #[test]
    fn a_run_shorter_than_a_window_is_one_window() {
        let samples = [
            Sample {
                end: 1_000,
                lat: 1,
                steps: 2,
            },
            Sample {
                end: 4_000,
                lat: 3,
                steps: 2,
            },
        ];
        assert_eq!(
            windows(&samples),
            vec![Window {
                rate: 4.0 / 4e-6,
                p50: 1
            }]
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&mut [5, 1, 3]), 3);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.0);
    }
}
