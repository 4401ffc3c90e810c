//! The two-stage cluster access protocol (Upfal & Wigderson 1987, as
//! organized by Luccio, Pietracaprina & Pucci 1990 and adopted by the
//! paper's Theorems 2 and 3).
//!
//! Processors form clusters of `2c−1`. To access a variable, the cluster
//! assigns one member to each of its still-live copies; a variable *dies*
//! (is satisfied) once `c` copies have been accessed, and dead variables
//! stop contending for modules.
//!
//! * **Stage 1** — clusters interleave their (up to `2c−1`) requests,
//!   one per phase in rotation, for a bounded number of phases. The
//!   memory-map lemma guarantees most requests die here; the protocol
//!   *measures* the leftovers (experiment E10 checks the `≤ n/(2c−1)`
//!   claim).
//! * **Stage 2** — each cluster dedicates itself to one leftover variable
//!   at a time; on the 2DMOT, `Θ(log n)` copy requests are pipelined per
//!   phase to amortize the tree latency.
//!
//! The protocol is generic over a [`PhaseExecutor`] — the thing that
//! resolves one phase's module contention and prices it. The DMMPC
//! executor charges one time unit per phase; the 2DMOT executor routes
//! every packet through the cycle-level network simulator.
//!
//! ## The flat data plane
//!
//! All per-step state lives in a caller-owned [`ProtocolWorkspace`]
//! (DESIGN.md §7): the attempt batch, the outcome buffer the executor
//! writes into, a CSR per-cluster request index, and two **copy
//! bitmasks** per request (accessed, written off) — the only quorum state:
//! counts are popcounts and placements are computed at issue. A scheme
//! reuses one workspace across every step, so the steady-state protocol
//! path performs **zero heap allocations** — verified by
//! `tests/alloc_steady_state.rs`.

use memdist::{Clusters, MemoryMap};
use pram_machine::StepCost;

/// One copy-access attempt issued in a phase.
///
/// Fields are `u32`: a phase batch streams thousands of attempts through
/// the executor per step, and halving the struct (20 bytes instead of 40
/// with `usize` fields) is a measured win on the memory-bound issue/serve
/// loops. Every field indexes an in-machine entity (request slot, module,
/// grid coordinate, processor), all of which fit comfortably; no executor
/// needs the variable, so it is not carried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyAttempt {
    /// Index into the step's request list.
    pub req: u32,
    /// Which of the variable's `2c−1` copies.
    pub copy: u32,
    /// Contention unit (module on a DMMPC; column on the 2DMOT).
    pub module: u32,
    /// Grid row of the copy (2DMOT leaf placement; 0 on a DMMPC).
    pub row: u32,
    /// Issuing processor (determines the source root on the 2DMOT).
    pub src: u32,
}

/// What happened to one copy attempt in a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The attempt reached its module; the copy was accessed.
    Served,
    /// The attempt lost a transient race (module contention, queue
    /// overflow, dropped message) — the protocol retries it next phase.
    Killed,
    /// The attempt hit a **permanent** fault (dead module, dead link):
    /// retrying can never succeed, so the protocol writes the copy off.
    Dead,
}

/// Resolves one phase of copy attempts against the machine's interconnect.
///
/// The executor writes what happened to each attempt into the
/// caller-owned `outcome` buffer (clearing it first, then pushing exactly
/// `attempts.len()` entries) and returns what the phase cost. The caller
/// reuses the buffer across phases, so a steady-state phase allocates
/// nothing.
pub trait PhaseExecutor {
    /// Execute the attempts; each contention unit serves at most
    /// `pipeline` of them. `outcome[i]` reports what happened to
    /// `attempts[i]`.
    fn execute(
        &mut self,
        attempts: &[CopyAttempt],
        pipeline: usize,
        outcome: &mut Vec<AttemptOutcome>,
    ) -> StepCost;

    /// Whether this executor can lose work for reasons other than
    /// contention (fault injection: dead modules, dead links, message
    /// drops). On a `false` executor the protocol's progress guarantee
    /// holds, so exceeding the stage-2 budget is a protocol bug and
    /// panics; on a `true` executor it is an expected degraded outcome
    /// and the step aborts gracefully instead.
    fn lossy(&self) -> bool {
        false
    }
}

/// Per-step protocol statistics (one row of E4/E5/E10 per step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtocolStats {
    /// Stage-1 phases executed.
    pub stage1_phases: u64,
    /// Stage-2 phases executed.
    pub stage2_phases: u64,
    /// Total network cycles (on cycle-level executors).
    pub cycles: u64,
    /// Total messages/hops.
    pub messages: u64,
    /// Network cycles spent in stage 1 (stage 2 = `cycles - stage1_cycles`).
    pub stage1_cycles: u64,
    /// Messages sent in stage 1 (stage 2 = `messages - stage1_messages`).
    pub stage1_messages: u64,
    /// Requests still live when stage 1 ended.
    pub stage1_leftover: usize,
    /// Copy attempts that lost a contention race.
    pub killed_attempts: u64,
    /// Copy attempts that hit a permanent fault (dead module or link) and
    /// were written off rather than retried.
    pub dead_attempts: u64,
    /// Requests that finished the step below their `c`-copy quorum —
    /// nonzero only under fault injection (or a guard abort): every copy
    /// they could still try was dead.
    pub failed_requests: usize,
    /// Copies actually accessed.
    pub copies_accessed: u64,
}

impl ProtocolStats {
    /// Total phases across both stages.
    pub fn phases(&self) -> u64 {
        self.stage1_phases + self.stage2_phases
    }

    /// Fold another step's stats into this accumulator (field-wise sums;
    /// `stage1_leftover` and `failed_requests` saturate rather than wrap).
    pub fn accumulate(&mut self, other: &ProtocolStats) {
        self.stage1_phases += other.stage1_phases;
        self.stage2_phases += other.stage2_phases;
        self.cycles += other.cycles;
        self.messages += other.messages;
        self.stage1_cycles += other.stage1_cycles;
        self.stage1_messages += other.stage1_messages;
        self.stage1_leftover = self.stage1_leftover.saturating_add(other.stage1_leftover);
        self.killed_attempts += other.killed_attempts;
        self.dead_attempts += other.dead_attempts;
        self.failed_requests = self.failed_requests.saturating_add(other.failed_requests);
        self.copies_accessed += other.copies_accessed;
    }
}

/// Placement of copies on the machine: the contention unit is the memory
/// map's module; the placement adds the grid row.
pub trait CopyPlacement {
    /// Grid row of copy `copy` of variable `var`.
    fn row(&self, var: usize, copy: usize) -> usize;
}

/// DMMPC placement: the map's module, no grid row.
#[derive(Debug, Clone, Copy)]
pub struct FlatPlacement;

impl CopyPlacement for FlatPlacement {
    fn row(&self, _var: usize, _copy: usize) -> usize {
        0
    }
}

/// 2DMOT leaf placement: the map's module is the **column** (the contention
/// unit, per Theorem 3); the row is a deterministic hash — it spreads
/// storage but does not affect contention.
#[derive(Debug, Clone, Copy)]
pub struct GridPlacement {
    /// Grid side.
    pub side: usize,
}

impl CopyPlacement for GridPlacement {
    fn row(&self, var: usize, copy: usize) -> usize {
        (simrng::mix64(((var as u64) << 20) | copy as u64) % self.side as u64) as usize
    }
}

/// Caller-owned, step-reusable state of [`run_protocol`]: every buffer
/// the protocol's hot path touches, sized once and recycled across steps
/// so the steady state allocates nothing.
///
/// After a step, the quorums live here: [`accessed`](Self::accessed)
/// yields the copy indices each request reached.
#[derive(Debug, Default)]
pub struct ProtocolWorkspace {
    /// Requests in the prepared step.
    len: usize,
    /// `u64` words per request in the copy bitmasks.
    words: usize,
    /// The phase's attempt batch (built fresh each phase, capacity kept).
    attempts: Vec<CopyAttempt>,
    /// The executor's outcome buffer (`outcome[i]` ↔ `attempts[i]`).
    outcome: Vec<AttemptOutcome>,
    /// Per-request accessed-copy bitmask (`len × words`).
    accessed_mask: Vec<u64>,
    /// Per-request written-off-copy bitmask (`len × words`).
    dead_mask: Vec<u64>,
    /// CSR offsets: cluster `k`'s requests are
    /// `cluster_reqs[cluster_start[k]..cluster_start[k+1]]`.
    cluster_start: Vec<u32>,
    /// Stage-1 rotation cursor per cluster.
    cluster_cursor: Vec<u32>,
    /// Request indices grouped by cluster (CSR payload).
    cluster_reqs: Vec<u32>,
    /// Counting-sort scratch for the CSR fill.
    fill: Vec<u32>,
}

impl ProtocolWorkspace {
    /// An empty workspace; buffers grow to steady-state capacity over the
    /// first step and are reused afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for a step of `len` requests with `r` copies per
    /// variable over `nclusters` clusters, and reset the per-step state.
    /// Allocates only while growing past the largest step seen so far.
    fn prepare(&mut self, len: usize, r: usize, nclusters: usize) {
        self.len = len;
        self.words = r.div_ceil(64).max(1);
        self.attempts.clear();
        self.outcome.clear();
        self.accessed_mask.clear();
        self.accessed_mask.resize(len * self.words, 0);
        self.dead_mask.clear();
        self.dead_mask.resize(len * self.words, 0);
        self.cluster_start.clear();
        self.cluster_start.resize(nclusters + 1, 0);
        self.cluster_cursor.clear();
        self.cluster_cursor.resize(nclusters, 0);
        self.cluster_reqs.clear();
        self.cluster_reqs.resize(len, 0);
        self.fill.clear();
        self.fill.resize(nclusters, 0);
    }

    /// Requests in the last prepared step.
    pub fn requests(&self) -> usize {
        self.len
    }

    /// Request `i`'s accessed-copy bitmask words.
    fn accessed_words(&self, i: usize) -> &[u64] {
        debug_assert!(i < self.len);
        &self.accessed_mask[i * self.words..(i + 1) * self.words]
    }

    /// Copy indices request `i` accessed in the last step, in ascending
    /// copy order (`≥ c` of them on a fault-free machine; possibly fewer
    /// under fault injection).
    pub fn accessed(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let words = self.accessed_words(i);
        let (mut word, mut bits) = (0, words[0]);
        std::iter::from_fn(move || {
            while bits == 0 {
                word += 1;
                bits = *words.get(word)?;
            }
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(word * 64 + bit)
        })
    }

    /// How many copies request `i` accessed in the last step.
    pub fn accessed_count(&self, i: usize) -> usize {
        ones(self.accessed_words(i)) as usize
    }
}

/// Set bits across a bitmask's words.
fn ones(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// The protocol's per-step view over a prepared workspace: disjoint
/// mutable borrows of every buffer, so phase execution can update them
/// while the rotation logic reads them.
struct StepState<'a, P: CopyPlacement> {
    requests: &'a [(usize, usize)],
    clusters: &'a Clusters,
    c: u32,
    r: usize,
    words: usize,
    map: &'a MemoryMap,
    placement: &'a P,
    attempts: &'a mut Vec<CopyAttempt>,
    outcome: &'a mut Vec<AttemptOutcome>,
    accessed_mask: &'a mut [u64],
    dead_mask: &'a mut [u64],
    cluster_start: &'a [u32],
    cluster_cursor: &'a mut [u32],
    cluster_reqs: &'a [u32],
}

impl<P: CopyPlacement> StepState<'_, P> {
    /// A request keeps contending while it is below quorum AND still has
    /// an untried, not-written-off copy to attempt. Requests that exhaust
    /// their viable copies below `c` are *failed* — they stop contending
    /// (and are counted at the end), instead of spinning on dead modules
    /// forever.
    fn live(&self, i: usize) -> bool {
        if self.words == 1 {
            return self.untried(i, 0) != 0 && self.accessed_mask[i].count_ones() < self.c;
        }
        (0..self.words).any(|w| self.untried(i, w) != 0)
            && ones(&self.accessed_mask[i * self.words..(i + 1) * self.words]) < self.c
    }

    /// Request `i`'s copies in mask word `w` that are neither accessed
    /// nor written off.
    fn untried(&self, i: usize, w: usize) -> u64 {
        let valid = u64::MAX >> (64 * w + 64).saturating_sub(self.r);
        let at = i * self.words + w;
        !(self.accessed_mask[at] | self.dead_mask[at]) & valid
    }

    /// Issue and execute one phase; `false` when no live request remains.
    // lint: hot
    fn run_phase<E: PhaseExecutor>(
        &mut self,
        exec: &mut E,
        stats: &mut ProtocolStats,
        pipeline: usize,
    ) -> bool {
        // Total phases so far — rotates the member↔copy assignment below.
        let phase = stats.stage1_phases + stats.stage2_phases;
        self.attempts.clear();
        self.attempts.reserve(self.clusters.count() * self.r);
        for k in 0..self.clusters.count() {
            let reqs = &self.cluster_reqs
                [self.cluster_start[k] as usize..self.cluster_start[k + 1] as usize];
            // Rotate to this cluster's next live request (compare-and-wrap).
            let mut at = self.cluster_cursor[k] as usize;
            let mut chosen = None;
            for _ in 0..reqs.len() {
                let i = reqs[at] as usize;
                at += 1;
                if at == reqs.len() {
                    at = 0;
                }
                if self.live(i) {
                    chosen = Some(i);
                    break;
                }
            }
            let Some(i) = chosen else { continue };
            self.cluster_cursor[k] = at as u32;
            let var = self.requests[i].1;
            // One map row load: the contention units of the copies issued.
            let modules = self.map.copies(var);
            // One cluster member per live copy. The assignment rotates
            // with the phase counter: a copy retried in a later phase is
            // issued by a *different* cluster member, so a route blocked
            // by a dead link for one source is retried around the fault
            // from the others (the dynamic-reassignment discipline of the
            // fault-tolerant P-RAM literature) instead of re-issuing the
            // identical doomed attempt forever. Cluster members are a
            // contiguous processor range, so the rotation is pure index
            // arithmetic — no member list is materialized.
            let members = self.clusters.members(k);
            let mut member = (phase % members.len() as u64) as usize;
            // The untried copies, word by word, in ascending order.
            for w in 0..self.words {
                let mut free = self.untried(i, w);
                self.attempts.extend((0..free.count_ones()).map(|_| {
                    let copy = w * 64 + free.trailing_zeros() as usize;
                    free &= free - 1;
                    let src = members.start + member;
                    member += 1;
                    if member == members.len() {
                        member = 0;
                    }
                    CopyAttempt {
                        req: i as u32,
                        copy: copy as u32,
                        module: modules[copy],
                        row: self.placement.row(var, copy) as u32,
                        src: src as u32,
                    }
                }));
            }
        }
        if self.attempts.is_empty() {
            return false; // everything done (or written off)
        }
        let cost = exec.execute(self.attempts, pipeline, self.outcome);
        debug_assert_eq!(self.outcome.len(), self.attempts.len());
        stats.cycles += cost.cycles;
        stats.messages += cost.messages;
        // Each issued request's attempts are one run of the batch, in the
        // order of its untried copies (unchanged since issue): replay that
        // mask against the run's outcomes, one served and one dead mask.
        let (mut killed_n, mut dead_n) = (0u64, 0u64);
        let mut at = 0;
        while at < self.attempts.len() {
            let req = self.attempts[at].req as usize;
            for w in 0..self.words {
                let mut free = self.untried(req, w);
                let (mut served, mut dead) = (0u64, 0u64);
                while free != 0 {
                    let bit = free & free.wrapping_neg();
                    free ^= bit;
                    debug_assert_eq!(
                        self.attempts[at].copy as usize,
                        w * 64 + bit.trailing_zeros() as usize
                    );
                    match self.outcome[at] {
                        AttemptOutcome::Served => served |= bit,
                        AttemptOutcome::Killed => killed_n += 1,
                        AttemptOutcome::Dead => {
                            dead |= bit;
                            dead_n += 1;
                        }
                    }
                    at += 1;
                }
                // Record even past c: extra accessed copies strengthen
                // the quorum at no additional cost.
                self.accessed_mask[req * self.words + w] |= served;
                self.dead_mask[req * self.words + w] |= dead;
            }
        }
        stats.copies_accessed += self.attempts.len() as u64 - killed_n - dead_n;
        stats.killed_attempts += killed_n;
        stats.dead_attempts += dead_n;
        true
    }
}

/// Run the two-stage protocol for one P-RAM step.
///
/// * `requests[i] = (processor, variable)` — deduplicated, one per
///   requesting processor;
/// * `ws` — the caller-owned workspace; after the call,
///   [`ProtocolWorkspace::accessed`] lists, per request, the copy indices
///   accessed. On a fault-free machine every request reaches `≥ c`
///   copies, so a write quorum / read majority is always available; under
///   fault injection an executor may report attempts [`AttemptOutcome::Dead`],
///   and a request whose viable copies run out below `c` ends short-quorum
///   (counted in [`ProtocolStats::failed_requests`] — the caller degrades
///   to best-effort over whatever was accessed).
///
/// The hot path is allocation-free in the steady state: every buffer
/// lives in `ws` and is recycled across steps.
#[allow(clippy::too_many_arguments)] // the protocol's full parameter list, documented above
pub fn run_protocol<E: PhaseExecutor>(
    requests: &[(usize, usize)],
    clusters: &Clusters,
    c: usize,
    r: usize,
    map: &MemoryMap,
    placement: &impl CopyPlacement,
    exec: &mut E,
    stage1_phases: usize,
    stage2_pipeline: usize,
    ws: &mut ProtocolWorkspace,
) -> ProtocolStats {
    let mut stats = ProtocolStats::default();
    ws.prepare(requests.len(), r, clusters.count());
    if requests.is_empty() {
        return stats;
    }

    // Requests of each cluster, as a counting-sorted CSR index (request
    // order within a cluster matches insertion order, exactly as the old
    // per-cluster Vec pushes did).
    for &(proc, _) in requests {
        ws.fill[clusters.cluster_of(proc)] += 1;
    }
    let mut sum = 0u32;
    for (k, count) in ws.fill.iter_mut().enumerate() {
        ws.cluster_start[k] = sum;
        sum += *count;
        *count = ws.cluster_start[k];
    }
    ws.cluster_start[clusters.count()] = sum;
    for (i, &(proc, _)) in requests.iter().enumerate() {
        let slot = &mut ws.fill[clusters.cluster_of(proc)];
        ws.cluster_reqs[*slot as usize] = i as u32;
        *slot += 1;
    }

    let mut state = StepState {
        requests,
        clusters,
        c: c as u32,
        r,
        words: ws.words,
        map,
        placement,
        attempts: &mut ws.attempts,
        outcome: &mut ws.outcome,
        accessed_mask: &mut ws.accessed_mask,
        dead_mask: &mut ws.dead_mask,
        cluster_start: &ws.cluster_start,
        cluster_cursor: &mut ws.cluster_cursor,
        cluster_reqs: &ws.cluster_reqs,
    };

    // Stage 1: bounded, serialized module service.
    // `pending` turns false once a phase finds nothing left to issue.
    let mut pending = true;
    for _ in 0..stage1_phases {
        pending = state.run_phase(exec, &mut stats, 1);
        if !pending {
            break;
        }
        stats.stage1_phases += 1;
    }
    if pending {
        stats.stage1_leftover = (0..requests.len()).filter(|&i| state.live(i)).count();
    }
    // Per-stage attribution seam (DESIGN.md §10): everything counted so
    // far belongs to stage 1; stage 2 is the difference at the end.
    stats.stage1_cycles = stats.cycles;
    stats.stage1_messages = stats.messages;

    // Stage 2: run to completion with pipelining. Termination: on a
    // fault-free machine every phase with work serves at least one attempt
    // (the first per module), so at most c·|requests| further phases
    // occur and exceeding the generous guard below is a protocol bug —
    // panic, exactly as before fault injection existed. Only a `lossy()`
    // executor (fault injection: message drops can stall progress
    // indefinitely) is allowed to abort the step instead: the leftover
    // requests simply end short-quorum and are counted as failed below,
    // the honest degraded outcome.
    let guard = 4 * c as u64 * requests.len() as u64 + 16;
    while pending && state.run_phase(exec, &mut stats, stage2_pipeline) {
        stats.stage2_phases += 1;
        if stats.stage2_phases > guard {
            assert!(
                exec.lossy(),
                "stage 2 failed to make progress (protocol bug)"
            );
            break;
        }
    }

    stats.failed_requests = (0..requests.len())
        .filter(|&i| ws.accessed_count(i) < c)
        .count();
    debug_assert!(
        stats.failed_requests == 0 || exec.lossy(),
        "a fault-free run must reach quorum on every request"
    );
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executors::BipartiteExec;
    use memdist::MemoryMap;

    /// Run one protocol step in a fresh workspace; returns the quorums as
    /// owned lists (test convenience — production callers read them out
    /// of their long-lived workspace).
    fn run_step<E: PhaseExecutor>(
        requests: &[(usize, usize)],
        clusters: &Clusters,
        c: usize,
        r: usize,
        map: &MemoryMap,
        exec: &mut E,
        stage1_phases: usize,
    ) -> (Vec<Vec<usize>>, ProtocolStats) {
        let mut ws = ProtocolWorkspace::new();
        let stats = run_protocol(
            requests,
            clusters,
            c,
            r,
            map,
            &FlatPlacement,
            exec,
            stage1_phases,
            1,
            &mut ws,
        );
        let accessed = (0..requests.len())
            .map(|i| ws.accessed(i).collect())
            .collect();
        (accessed, stats)
    }

    fn run(
        n: usize,
        m: usize,
        modules: usize,
        c: usize,
        requests: &[(usize, usize)],
    ) -> (Vec<Vec<usize>>, ProtocolStats) {
        let r = 2 * c - 1;
        let map = MemoryMap::random(m, modules, r, 42);
        let clusters = Clusters::new(n, r);
        let mut exec = BipartiteExec::new(modules);
        run_step(requests, &clusters, c, r, &map, &mut exec, 4)
    }

    #[test]
    fn all_requests_reach_quorum() {
        let n = 16;
        let requests: Vec<(usize, usize)> = (0..n).map(|p| (p, p * 3)).collect();
        let (accessed, stats) = run(n, 64, 64, 3, &requests);
        for (i, a) in accessed.iter().enumerate() {
            assert!(a.len() >= 3, "request {i} accessed only {:?}", a);
            // All copies distinct.
            let set: std::collections::HashSet<_> = a.iter().collect();
            assert_eq!(set.len(), a.len());
        }
        assert!(stats.copies_accessed >= (3 * n) as u64);
    }

    #[test]
    fn empty_step_costs_nothing() {
        let (accessed, stats) = run(8, 32, 32, 2, &[]);
        assert!(accessed.is_empty());
        assert_eq!(stats.phases(), 0);
    }

    #[test]
    fn single_request_finishes_in_one_phase() {
        // One variable, c=2, r=3 distinct modules: all three copies hit
        // distinct modules in phase 1.
        let (accessed, stats) = run(8, 32, 32, 2, &[(0, 5)]);
        assert_eq!(accessed[0].len(), 3);
        assert_eq!(stats.phases(), 1);
        assert_eq!(stats.stage1_leftover, 0);
    }

    #[test]
    fn hot_module_forces_stage2() {
        // A congested map: every variable's copies in modules 0..r. With
        // many requests, stage 1's budget cannot clear them all.
        let c = 3;
        let r = 5;
        let n = 20;
        let map = MemoryMap::congested(64, 64, r);
        let clusters = Clusters::new(n, r);
        let mut exec = BipartiteExec::new(64);
        let requests: Vec<(usize, usize)> = (0..n).map(|p| (p, p)).collect();
        let (accessed, stats) = run_step(&requests, &clusters, c, r, &map, &mut exec, 2);
        assert!(
            accessed.iter().all(|a| a.len() >= c),
            "protocol still completes"
        );
        assert!(
            stats.stage1_leftover > 0,
            "congestion must leave stage-1 leftovers"
        );
        assert!(stats.stage2_phases > 0);
        assert!(stats.killed_attempts > 0);
    }

    /// Executor decorator marking every attempt at a module in `dead` as
    /// permanently faulted (the shape `cr-faults`' FaultyExec takes).
    struct DeadModules<E> {
        inner: E,
        dead: Vec<bool>,
    }

    impl<E: PhaseExecutor> PhaseExecutor for DeadModules<E> {
        fn execute(
            &mut self,
            attempts: &[CopyAttempt],
            pipeline: usize,
            outcome: &mut Vec<AttemptOutcome>,
        ) -> StepCost {
            let cost = self.inner.execute(attempts, pipeline, outcome);
            for (a, out) in attempts.iter().zip(outcome.iter_mut()) {
                if self.dead[a.module as usize] {
                    *out = AttemptOutcome::Dead;
                }
            }
            cost
        }

        fn lossy(&self) -> bool {
            self.dead.iter().any(|&d| d)
        }
    }

    #[test]
    fn dead_modules_are_written_off_not_retried() {
        // r = 5, c = 3 over 16 modules; kill 2 modules. Every request still
        // has ≥ 3 live copies, so every quorum completes — and the phase
        // count stays bounded because dead copies are not retried.
        let (m, modules, c) = (64usize, 16usize, 3usize);
        let r = 2 * c - 1;
        let map = MemoryMap::random(m, modules, r, 7);
        let clusters = Clusters::new(8, r);
        let mut dead = vec![false; modules];
        dead[0] = true;
        dead[5] = true;
        let mut exec = DeadModules {
            inner: BipartiteExec::new(modules),
            dead,
        };
        let requests: Vec<(usize, usize)> = (0..8).map(|p| (p, p * 7)).collect();
        let (accessed, stats) = run_step(&requests, &clusters, c, r, &map, &mut exec, 4);
        for (i, a) in accessed.iter().enumerate() {
            let faulty = map
                .copies(requests[i].1)
                .iter()
                .filter(|&&md| md == 0 || md == 5)
                .count();
            assert!(
                a.len() >= c.min(r - faulty),
                "request {i}: accessed {a:?} with {faulty} dead copies"
            );
            // No dead module was ever recorded as accessed.
            for &cp in a {
                let md = map.module_of(requests[i].1, cp);
                assert!(md != 0 && md != 5);
            }
        }
        assert_eq!(stats.failed_requests, 0, "≥ c live copies everywhere");
        // Dead attempts happen once per (request, dead copy), never more.
        let total_dead_copies: usize = requests
            .iter()
            .map(|&(_, v)| {
                map.copies(v)
                    .iter()
                    .filter(|&&md| md == 0 || md == 5)
                    .count()
            })
            .sum();
        assert!(stats.dead_attempts as usize <= total_dead_copies);
    }

    /// Executor where one *source processor* is cut off (every attempt it
    /// issues is killed) — the shape of a per-source link fault on the
    /// 2DMOT. Transient from the protocol's point of view: the same copy
    /// can succeed from a different member.
    struct SourceBlocked {
        inner: BipartiteExec,
        blocked_src: usize,
    }

    impl PhaseExecutor for SourceBlocked {
        fn execute(
            &mut self,
            attempts: &[CopyAttempt],
            pipeline: usize,
            outcome: &mut Vec<AttemptOutcome>,
        ) -> StepCost {
            let cost = self.inner.execute(attempts, pipeline, outcome);
            for (a, out) in attempts.iter().zip(outcome.iter_mut()) {
                if a.src as usize == self.blocked_src {
                    *out = AttemptOutcome::Killed;
                }
            }
            cost
        }

        fn lossy(&self) -> bool {
            true
        }
    }

    #[test]
    fn member_rotation_routes_around_a_blocked_source() {
        // c = 2, r = 3: clusters {0,1,2}, {3,4,5}. Processor 0 can never
        // deliver an attempt. Because the member↔copy assignment rotates
        // per phase, every copy is eventually issued by processors 1 or 2
        // and every request still reaches quorum — in a bounded number of
        // phases, not by burning the stage-2 guard.
        let (m, modules, c) = (32usize, 16usize, 2usize);
        let r = 2 * c - 1;
        let map = MemoryMap::random(m, modules, r, 5);
        let clusters = Clusters::new(6, r);
        let mut exec = SourceBlocked {
            inner: BipartiteExec::new(modules),
            blocked_src: 0,
        };
        let requests: Vec<(usize, usize)> = (0..6).map(|p| (p, p * 5)).collect();
        let (accessed, stats) = run_step(&requests, &clusters, c, r, &map, &mut exec, 4);
        assert!(
            accessed.iter().all(|a| a.len() >= c),
            "rotation must route around the blocked source: {accessed:?}"
        );
        assert_eq!(stats.failed_requests, 0);
        let guard = 4 * c as u64 * requests.len() as u64 + 16;
        assert!(
            stats.phases() < guard / 2,
            "phases {} should be far below the guard {guard}",
            stats.phases()
        );
    }

    #[test]
    fn all_copies_dead_fails_request_and_terminates() {
        // Every module dead: no request can access anything; the protocol
        // must terminate immediately with every request failed.
        let (m, modules, c) = (32usize, 8usize, 2usize);
        let r = 2 * c - 1;
        let map = MemoryMap::random(m, modules, r, 3);
        let clusters = Clusters::new(4, r);
        let mut exec = DeadModules {
            inner: BipartiteExec::new(modules),
            dead: vec![true; modules],
        };
        let requests: Vec<(usize, usize)> = (0..4).map(|p| (p, p)).collect();
        let (accessed, stats) = run_step(&requests, &clusters, c, r, &map, &mut exec, 4);
        assert!(accessed.iter().all(|a| a.is_empty()));
        assert_eq!(stats.failed_requests, 4);
        assert_eq!(stats.dead_attempts, (4 * r) as u64);
        // One discovery phase per copy at most — no spinning.
        assert!(
            stats.phases() <= (r + 4) as u64,
            "phases {}",
            stats.phases()
        );
    }

    #[test]
    fn deterministic() {
        let requests: Vec<(usize, usize)> = (0..12).map(|p| (p, (p * 7) % 50)).collect();
        let a = run(12, 50, 64, 3, &requests);
        let b = run(12, 50, 64, 3, &requests);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn workspace_reuse_is_equivalent_to_fresh() {
        // The same step through one recycled workspace and through fresh
        // workspaces must agree — buffer reuse is invisible.
        let requests: Vec<(usize, usize)> = (0..12).map(|p| (p, (p * 7) % 50)).collect();
        let map = MemoryMap::random(50, 64, 5, 42);
        let clusters = Clusters::new(12, 5);
        let mut exec = BipartiteExec::new(64);
        let mut ws = ProtocolWorkspace::new();
        let mut reused = Vec::new();
        for _ in 0..3 {
            let stats = run_protocol(
                &requests,
                &clusters,
                3,
                5,
                &map,
                &FlatPlacement,
                &mut exec,
                4,
                1,
                &mut ws,
            );
            let acc: Vec<Vec<usize>> = (0..requests.len())
                .map(|i| ws.accessed(i).collect())
                .collect();
            reused.push((acc, stats));
        }
        // Shrinking steps must also recycle cleanly: a 2-request step
        // after a 12-request step sees correctly reset state.
        let small: Vec<(usize, usize)> = (0..2).map(|p| (p, p + 30)).collect();
        let stats = run_protocol(
            &small,
            &clusters,
            3,
            5,
            &map,
            &FlatPlacement,
            &mut exec,
            4,
            1,
            &mut ws,
        );
        assert_eq!(stats.failed_requests, 0);
        assert_eq!(ws.requests(), 2);
        for (acc, stats) in &reused {
            assert_eq!(*acc, reused[0].0);
            assert_eq!(*stats, reused[0].1);
            assert!(acc.iter().all(|a| a.len() >= 3));
        }
    }

    #[test]
    fn good_map_needs_few_phases() {
        // Fine granularity: modules >> n means phases stay near the
        // minimum even with every processor requesting.
        let n = 32;
        let requests: Vec<(usize, usize)> = (0..n).map(|p| (p, p * 11)).collect();
        let (_, stats) = run(n, 512, 512, 3, &requests);
        // r=5-member clusters, ~7 clusters, each with ≤5 requests: the
        // protocol interleaves them; phase count should be well under the
        // serial bound of n.
        assert!(
            stats.phases() < n as u64,
            "phases {} too high",
            stats.phases()
        );
    }
}
