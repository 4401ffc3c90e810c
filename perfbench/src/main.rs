//! Command-line entry point: runs one workload, prints every metric with
//! its unit, writes the result and span files under `out/`, and ends with
//! the one-line JSON result.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use pramsim_perfbench::{json_number, run, Args, Report};

#[global_allocator]
static ALLOC: metrics::counting::CountingAlloc = metrics::counting::CountingAlloc;

/// Spans written per traced run (the rest stay summarised in the metrics).
const SPAN_FILE_CAP: usize = 20_000;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <dmmpc-uniform|2dmot-hotspot|serve-tcp> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(e.exit_code() as u8);
        }
    };
    match run(&args) {
        Ok(report) => {
            print_table(&args, &report);
            if let Err(e) = write_files(&args, &report) {
                eprintln!("perfbench: cannot write results: {e}");
                return ExitCode::from(3);
            }
            println!("{}", report.result_json(args.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} (seed {}): {e}",
                args.workload.name(),
                args.seed
            );
            ExitCode::from(e.exit_code() as u8)
        }
    }
}

fn print_table(args: &Args, r: &Report) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(out, "host {}", r.host.to_json());
    for d in Report::defs(args.trace) {
        let v = r.get(d.name).unwrap_or(f64::NAN);
        let _ = writeln!(out, "  {:<36} {:>16.4} {}", d.name, v, d.unit);
        if let (Some((p99, n)), "request_p50_us") = (r.tail, d.name) {
            let _ = writeln!(
                out,
                "  {:<36} {:>16.4} us  (not gated)",
                "request_p99_us", p99
            );
            let _ = writeln!(
                out,
                "  {:<36} {:>16} count  (behind p50 and p99)",
                "request_samples", n
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:<36} {:>16.4} frac  ({} of {} requests)",
        "failed_frac",
        failed_frac(r),
        r.failed,
        r.attempted
    );
    for n in &r.notes {
        let _ = writeln!(out, "  note: {n}");
    }
}

fn failed_frac(r: &Report) -> f64 {
    r.failed as f64 / r.attempted.max(1) as f64
}

/// `out/<workload>-seed<seed>-trace<t>.json`, plus the spans of a traced
/// run as JSON lines.
fn write_files(args: &Args, r: &Report) -> std::io::Result<()> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let metrics: Vec<String> = r
        .values
        .iter()
        .map(|(k, v)| format!("\"{k}\":{}", json_number(*v)))
        .collect();
    let notes: Vec<String> = r.notes.iter().map(|n| format!("{n:?}")).collect();
    let tail = match r.tail {
        Some((p99, n)) => format!(
            ",\"request_p99_us\":{},\"request_samples\":{n}",
            json_number(p99)
        ),
        None => String::new(),
    };
    let body = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"attempted\":{},\"failed\":{},\"failed_frac\":{},\"metrics\":{{{}{tail}}},\"notes\":[{}]}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        r.host.to_json(),
        r.attempted,
        r.failed,
        json_number(failed_frac(r)),
        metrics.join(","),
        notes.join(",")
    );
    std::fs::write(dir.join(format!("{stem}.json")), body)?;
    if let Some(spans) = &r.spans {
        spans.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")), SPAN_FILE_CAP)?;
    }
    Ok(())
}
