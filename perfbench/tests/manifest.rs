//! `BENCHMARK.json` names exactly the workloads and metrics this benchmark
//! reports, with the same units.

use pramsim_perfbench::{Workload, END_TO_END, PER_LAYER};

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let m = manifest();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
        assert!(m.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = m.matches("\"unit\":").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "extra metrics declared"
    );
}

#[test]
fn every_workload_is_declared() {
    let m = manifest();
    for w in Workload::ALL {
        assert!(
            m.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
}
