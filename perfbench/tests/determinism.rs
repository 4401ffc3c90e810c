//! Same seed, same exact counters on every workload; another seed moves
//! the sampled counters of `dmmpc-uniform`.

use pramsim_perfbench::{run, Args, Workload, EXACT};

#[global_allocator]
static ALLOC: metrics::counting::CountingAlloc = metrics::counting::CountingAlloc;

/// The exact counters of one short traced run.
fn exact_counters(workload: Workload, seed: u64) -> Vec<(&'static str, f64)> {
    let report = run(&Args {
        workload,
        seed,
        seconds: 0.2,
        trace: true,
    })
    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    EXACT
        .iter()
        .map(|&name| (name, report.get(name).expect("exact counter reported")))
        .collect()
}

// One test, so no two runs move the process between CPUs at once.
#[test]
fn exact_counters_repeat_per_seed_and_move_with_it() {
    for w in Workload::ALL {
        assert_eq!(exact_counters(w, 7), exact_counters(w, 7), "{}", w.name());
    }
    let other = exact_counters(Workload::DmmpcUniform, 8);
    assert_ne!(
        exact_counters(Workload::DmmpcUniform, 7),
        other,
        "seed 8 reproduced seed 7's dmmpc-uniform counters"
    );
}
