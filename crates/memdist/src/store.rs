//! The replicated copy store: timestamped values with quorum access.
//!
//! Majority rule (Thomas 1979; Gifford 1979; Upfal & Wigderson 1987): each
//! variable has `r = 2c−1` copies; a write stamps `≥ c` of them with a fresh
//! timestamp; a read collects `≥ c` and takes the value with the newest
//! stamp. Any two `c`-subsets of a `(2c−1)`-set intersect, so the read quorum
//! always contains an up-to-date copy.

use crate::map::{MemoryMap, VarId};

/// The value type stored in shared memory (matches the P-RAM word).
pub type Value = i64;

/// Copies of all variables: `(value, timestamp)` per copy, laid out flat as
/// `var * r + copy_index` — interleaved, so one quorum access touches one
/// contiguous run of memory instead of two parallel arrays (the store is
/// the step engine's largest random-access surface; halving its cache
/// misses is a measured win on E15's DMMPC path).
#[derive(Debug, Clone)]
pub struct ReplicatedStore {
    r: usize,
    slots: Vec<(Value, u64)>,
}

impl ReplicatedStore {
    /// Zero-initialized copies for all of `map`'s variables. Timestamp 0
    /// with value 0 is the consistent initial state.
    pub fn new(map: &MemoryMap) -> Self {
        let slots = map.vars() * map.redundancy();
        ReplicatedStore {
            r: map.redundancy(),
            slots: vec![(0, 0); slots],
        }
    }

    /// Copies per variable.
    #[inline]
    pub fn redundancy(&self) -> usize {
        self.r
    }

    /// Number of variables.
    #[inline]
    pub fn vars(&self) -> usize {
        self.slots.len() / self.r
    }

    /// Write one copy.
    #[inline]
    pub fn write_copy(&mut self, v: VarId, copy: usize, value: Value, ts: u64) {
        debug_assert!(copy < self.r);
        self.slots[v * self.r + copy] = (value, ts);
    }

    /// Read one copy: `(value, timestamp)`.
    #[inline]
    pub fn read_copy(&self, v: VarId, copy: usize) -> (Value, u64) {
        debug_assert!(copy < self.r);
        self.slots[v * self.r + copy]
    }

    /// Write `value` with stamp `ts` to the given copy indices (the write
    /// quorum the protocol managed to reach — the caller enforces `≥ c`).
    pub fn write_quorum(
        &mut self,
        v: VarId,
        copies: impl IntoIterator<Item = usize>,
        value: Value,
        ts: u64,
    ) {
        for i in copies {
            self.write_copy(v, i, value, ts);
        }
    }

    /// Majority read over the given copy indices: the value with the
    /// newest timestamp (the first copy visited wins a tie, which is only
    /// a choice when one stamp went to more than one value). The caller
    /// enforces that `copies` is a legal read quorum (`≥ c` copies).
    pub fn read_majority(&self, v: VarId, copies: impl IntoIterator<Item = usize>) -> Value {
        let mut copies = copies.into_iter();
        let first = copies.next().expect("read quorum must be non-empty");
        let (mut best_val, mut best_ts) = self.read_copy(v, first);
        for i in copies {
            let (val, ts) = self.read_copy(v, i);
            if ts > best_ts {
                (best_val, best_ts) = (val, ts);
            }
        }
        best_val
    }

    /// The newest timestamp any copy of `v` carries (diagnostics/tests).
    pub fn newest_stamp(&self, v: VarId) -> u64 {
        (0..self.r).map(|i| self.read_copy(v, i).1).max().unwrap()
    }

    /// Direct full-quorum write touching **all** copies — used only for
    /// initialization (`poke`) outside step accounting.
    pub fn write_all(&mut self, v: VarId, value: Value, ts: u64) {
        for i in 0..self.r {
            self.write_copy(v, i, value, ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MemoryMap;
    use simrng::{rng_from_seed, Rng};

    fn store(m: usize, r: usize) -> ReplicatedStore {
        let map = MemoryMap::random(m, 4 * r, r, 0);
        ReplicatedStore::new(&map)
    }

    #[test]
    fn initial_state_consistent() {
        let s = store(4, 5);
        assert_eq!(s.read_majority(2, [0, 1, 2]), 0);
        assert_eq!(s.newest_stamp(2), 0);
    }

    #[test]
    fn quorum_intersection_guarantees_freshness() {
        // r = 5, c = 3: write to copies {0,1,2}, read from {2,3,4} —
        // they intersect in copy 2, which carries the new stamp.
        let mut s = store(2, 5);
        s.write_quorum(0, [0, 1, 2], 42, 7);
        assert_eq!(s.read_majority(0, [2, 3, 4]), 42);
        // A *sub-quorum* read that misses the write quorum sees stale data:
        // this is exactly why c copies are required.
        assert_eq!(s.read_majority(0, [3, 4]), 0);
    }

    #[test]
    fn newer_stamp_wins_regardless_of_order() {
        let mut s = store(1, 5);
        s.write_quorum(0, [0, 1, 2], 1, 1);
        s.write_quorum(0, [2, 3, 4], 2, 2);
        // Copy 0 still holds (1, ts=1); copy 3 holds (2, ts=2).
        assert_eq!(s.read_majority(0, [0, 3, 4]), 2);
        assert_eq!(s.read_majority(0, [0, 1, 2]), 2); // via copy 2
    }

    #[test]
    fn write_all_initialization() {
        let mut s = store(3, 3);
        s.write_all(1, 99, 1);
        for i in 0..3 {
            assert_eq!(s.read_copy(1, i), (99, 1));
        }
    }

    /// Randomized check of the majority-rule invariant: any interleaving of
    /// c-quorum writes and c-quorum reads (monotone timestamps) is
    /// linearizable — every read returns the latest completed write.
    #[test]
    fn randomized_quorum_linearizability() {
        let r = 7;
        let c = 4;
        let mut s = store(1, r);
        let mut rng = rng_from_seed(1234);
        let mut latest: Value = 0;
        for step in 1..500u64 {
            let quorum: Vec<usize> = rng
                .sample_distinct(r as u64, c)
                .into_iter()
                .map(|x| x as usize)
                .collect();
            if rng.chance(0.5) {
                latest = step as Value * 10;
                s.write_quorum(0, quorum.iter().copied(), latest, step);
            } else {
                assert_eq!(
                    s.read_majority(0, quorum.iter().copied()),
                    latest,
                    "at step {step}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_quorum_rejected() {
        let s = store(1, 3);
        let _ = s.read_majority(0, []);
    }
}
