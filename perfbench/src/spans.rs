//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the recorder's
//! epoch), the span that caused it, and the request it belongs to. Spans
//! stay in memory while the run measures and are written out when it ends.
//! A span's self time is its duration minus the time its children cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `core.access`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Time and count totals of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns): durations minus child coverage.
    pub self_ns: u64,
}

/// The span recorder of one thread.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `epoch`.
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// `t` in nanoseconds since the epoch.
    pub fn at(&self, t: Instant) -> u64 {
        ns_since(self.epoch, t)
    }

    /// Record a finished span; returns its index (a parent handle).
    pub fn push(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        req: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Close a span pushed with a provisional end.
    pub fn set_end(&mut self, id: usize, end: u64) {
        self.spans[id].end = end;
    }

    /// Append spans another recorder with the same epoch took.
    pub fn extend(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Time each span's children cover. The children of one span are
    /// sequential calls made by one thread, so their clipped durations
    /// never overlap and their sum is the time they cover.
    fn covered(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (lo, hi) = (s.start.max(parent.start), s.end.min(parent.end));
                covered[p] += hi.saturating_sub(lo);
            }
        }
        covered
    }

    /// For every span named `name`, the time its children cover.
    pub fn child_time(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .zip(self.covered())
            .filter(|(s, _)| s.name == name)
            .map(|(_, c)| c)
            .collect()
    }

    /// Per-name totals.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let covered = self.covered();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, cov) in self.spans.iter().zip(covered) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.duration();
            t.self_ns += s.duration().saturating_sub(cov);
        }
        out
    }

    /// Write the first `cap` spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, cap: usize) -> std::io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start, s.end, s.req
            )?;
        }
        w.flush()
    }
}

/// Nanoseconds from `epoch` to `t` (0 if `t` is earlier).
pub fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(Instant::now());
        let p = s.push("access", 100, 200, None, 0);
        s.push("executor", 110, 130, Some(p), 0);
        s.push("executor", 150, 190, Some(p), 0);
        let t = s.totals();
        assert_eq!(t["access"].total_ns, 100);
        assert_eq!(t["access"].self_ns, 40);
        assert_eq!(t["executor"].count, 2);
        assert_eq!(t["executor"].self_ns, 60);
    }

    #[test]
    fn extend_rebases_parents() {
        let mut a = Spans::new(Instant::now());
        a.push("x", 0, 1, None, 0);
        let mut b = Spans::new(a.epoch);
        let p = b.push("y", 0, 10, None, 1);
        b.push("z", 2, 4, Some(p), 1);
        a.extend(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.totals()["y"].self_ns, 8);
    }
}
