//! Confining the whole process to one CPU at a time, rotating through the
//! CPUs it may run on.
//!
//! On a virtual machine each vCPU shares a physical core with other
//! tenants, and the vCPUs slow down independently, for seconds at a time.
//! Threads left where the scheduler puts them measure those neighbours and
//! the placement: a request handed between threads on two vCPUs pays a
//! cross-CPU wake-up, on one vCPU a context switch. A [`Rotation`] moves
//! every thread of the process onto one CPU and on to the next allowed CPU
//! every [`HOP`], so placement is fixed and a run's whole-run statistics
//! weigh every CPU alike, whichever one the scheduler would have picked.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the process stays on one CPU.
pub const HOP: Duration = Duration::from_millis(250);

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const SET_WORDS: usize = 16;

type CpuSet = [u64; SET_WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The calling thread's CPU mask.
fn get() -> Option<CpuSet> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

/// Set thread `tid`'s CPU mask (best effort: the thread may have exited).
fn set(tid: i32, mask: &CpuSet) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed; an
    // unknown `tid` makes the call fail, which is ignored.
    unsafe {
        sched_setaffinity(tid, std::mem::size_of_val(mask), mask.as_ptr());
    }
}

/// Give every thread of this process `mask`.
fn confine_all(mask: &CpuSet) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks.filter_map(|t| t.ok()?.file_name().to_str()?.parse::<i32>().ok()) {
        set(tid, mask);
    }
}

fn only(cpu: usize) -> CpuSet {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// The CPUs the calling thread may run on (empty when the mask cannot be
/// read).
pub fn allowed_cpus() -> Vec<usize> {
    get().map_or_else(Vec::new, |m| {
        (0..SET_WORDS * 64)
            .filter(|&c| m[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

/// While alive, keeps every thread of the process on one CPU; dropping it
/// restores the original mask.
pub struct Pin {
    original: Option<CpuSet>,
}

impl Pin {
    /// Move the process onto `cpu`.
    pub fn to(cpu: usize) -> Pin {
        let original = get();
        if original.is_some() {
            confine_all(&only(cpu));
        }
        Pin { original }
    }
}

impl Drop for Pin {
    fn drop(&mut self) {
        if let Some(m) = &self.original {
            confine_all(m);
        }
    }
}

/// While alive, keeps the process on one CPU at a time; dropping it
/// restores the original mask on every thread.
pub struct Rotation {
    /// Dropping the sender stops the rotation thread.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Rotation {
    /// Confine the process to its first allowed CPU and start rotating (a
    /// no-op where the mask cannot be read or holds one CPU).
    pub fn start() -> Rotation {
        let original = get();
        let cpus = allowed_cpus();
        match original {
            Some(original) if cpus.len() > 1 => {
                confine_all(&only(cpus[0]));
                let (stop, stopped) = mpsc::channel::<()>();
                let thread = std::thread::spawn(move || {
                    let mut next = 1;
                    while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(HOP) {
                        confine_all(&only(cpus[next % cpus.len()]));
                        next += 1;
                    }
                    confine_all(&original);
                });
                Rotation {
                    stop: Some(stop),
                    thread: Some(thread),
                }
            }
            _ => Rotation {
                stop: None,
                thread: None,
            },
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(t) = self.thread.take() {
            if t.join().is_err() {
                eprintln!("perfbench: the CPU rotation thread panicked");
            }
        }
    }
}
