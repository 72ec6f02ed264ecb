//! Emits and checks the performance trajectory files.
//!
//! ```text
//! trajectory --emit <path>            # deterministic solver counters
//! trajectory --sequential <path>      # deterministic sequential-deploy stats
//! trajectory --check <path>           # decode + validate either report
//! ```
//!
//! Output is wrapped in the versioned `{"schema_version": N, "payload": ...}`
//! `stc-serve` envelope.  Both reports are byte-deterministic across
//! machines: CI diffs them against
//! `crates/bench/snapshots/BENCH_trajectory.json` and
//! `BENCH_sequential.json`.  Wall time is measured by `perfbench`, not
//! here.

use std::process::ExitCode;

use stc_bench::trajectory::{
    collect_sequential, collect_trajectory, SequentialReport, TrajectoryReport,
};
use stc_serve::envelope;

fn write_enveloped<T: serde::Serialize>(report: &T, path: &str) -> Result<(), String> {
    let encoded = envelope::encode(report).map_err(|error| error.to_string())?;
    std::fs::write(path, encoded + "\n").map_err(|error| format!("cannot write {path}: {error}"))
}

/// Checks a decoded report, whichever of the two kinds the file holds.
fn check(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    if let Ok(report) = envelope::decode::<TrajectoryReport>(&text) {
        report.validate()?;
        eprintln!("{path}: valid trajectory report ({} points)", report.points.len());
        return Ok(());
    }
    let report: SequentialReport = envelope::decode(&text).map_err(|error| error.to_string())?;
    report.validate()?;
    for point in &report.points {
        eprintln!(
            "{path}: {} specs x {} devices [{}]: expected cost {:.3} vs static {:.3} \
             ({} early exits)",
            point.specs,
            point.test_devices,
            point.cost_model,
            point.expected_cost,
            point.static_cost,
            point.early_exits,
        );
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag, path] if flag == "--emit" => {
            let report = collect_trajectory();
            write_enveloped(&report, path)?;
            eprintln!("wrote {} trajectory points to {path}", report.points.len());
            Ok(())
        }
        [flag, path] if flag == "--sequential" => {
            let report = collect_sequential();
            write_enveloped(&report, path)?;
            eprintln!("wrote {} sequential points to {path}", report.points.len());
            Ok(())
        }
        [flag, path] if flag == "--check" => check(path),
        _ => Err("usage: trajectory --emit <path> | --sequential <path> | --check <path>".into()),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
