//! The host block recorded with every result: what the numbers were
//! measured on, and how many threads competed for its cores.

use std::path::Path;

/// Facts about the machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `galois::kernels::active_path()`.
    pub simd_path: &'static str,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// Service shards (0 for in-process workloads).
    pub shards: usize,
    /// Client threads, one connection each (0 for in-process workloads).
    pub client_threads: usize,
    /// Threads the workload keeps busy: the bench thread, or clients plus
    /// the server's connection threads plus shards.
    pub busy_threads: usize,
}

/// CPUs a workload runs on at once: the benchmark confines the process to
/// one CPU at a time (see `affinity`).
pub const CPUS_IN_USE: usize = 1;

impl Host {
    /// The host block for a workload running `shards` shards and
    /// `client_threads` client connections (both 0 in-process).
    pub fn probe(shards: usize, client_threads: usize) -> Host {
        let busy_threads = if client_threads == 0 {
            1
        } else {
            2 * client_threads + shards
        };
        Host {
            nproc: nproc(),
            simd_path: galois::kernels::active_path().label(),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
            shards,
            client_threads,
            busy_threads,
        }
    }

    /// More busy threads than CPUs in use: the run timeshares.
    pub fn oversubscribed(&self) -> bool {
        self.busy_threads > CPUS_IN_USE
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"simd_path\":\"{}\",\"profile\":\"{}\",\"commit\":\"{}\",\
             \"shards\":{},\"client_threads\":{},\"busy_threads\":{},\"cpus_in_use\":{},\
             \"oversubscribed\":{}}}",
            self.nproc,
            self.simd_path,
            self.profile,
            self.commit,
            self.shards,
            self.client_threads,
            self.busy_threads,
            CPUS_IN_USE,
            self.oversubscribed()
        )
    }
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit `root/.git/HEAD` names, read without running git (which
/// would search parent directories outside the checkout).
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&git.join(name)) {
        return hash.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, r) = l.split_once(' ')?;
                (r == name).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
