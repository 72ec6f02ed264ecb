//! Emits and checks the performance trajectory files.
//!
//! ```text
//! trajectory --emit <path>            # deterministic solver counters
//! trajectory --sequential <path>      # deterministic sequential-deploy stats
//! trajectory --screening <path>       # deterministic screen-then-verify
//!                                     # counters (exact-paired workloads)
//! trajectory --check <path>           # decode + validate any report
//! ```
//!
//! Output is wrapped in the versioned `{"schema_version": N, "payload": ...}`
//! `stc-serve` envelope.  All three reports are byte-deterministic across
//! machines: CI diffs them against
//! `crates/bench/snapshots/BENCH_trajectory.json`, `BENCH_sequential.json`
//! and `BENCH_screening.json`.  Wall time is measured by `perfbench`, not
//! here.

use std::process::ExitCode;

use stc_bench::trajectory::{
    collect_screening, collect_sequential, collect_trajectory, ScreeningReport, SequentialReport,
    TrajectoryReport,
};
use stc_serve::envelope;

fn write_enveloped<T: serde::Serialize>(report: &T, path: &str) -> Result<(), String> {
    let encoded = envelope::encode(report).map_err(|error| error.to_string())?;
    std::fs::write(path, encoded + "\n").map_err(|error| format!("cannot write {path}: {error}"))
}

/// Checks a decoded report, whichever of the three kinds the file holds.
fn check(path: &str) -> Result<(), String> {
    let text =
        std::fs::read_to_string(path).map_err(|error| format!("cannot read {path}: {error}"))?;
    if let Ok(report) = envelope::decode::<TrajectoryReport>(&text) {
        report.validate()?;
        eprintln!("{path}: valid trajectory report ({} points)", report.points.len());
        return Ok(());
    }
    if let Ok(report) = envelope::decode::<SequentialReport>(&text) {
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
        return Ok(());
    }
    let report: ScreeningReport = envelope::decode(&text).map_err(|error| error.to_string())?;
    report.validate()?;
    for point in &report.points {
        eprintln!(
            "{path}: {} x {} devices [{}]: {} screened, {} verified over {} batches, \
             {} exact trainings saved ({} -> {}), kept sets identical",
            point.device,
            point.train_devices,
            point.strategy,
            point.screened,
            point.verified,
            point.batches,
            point.trainings_saved,
            point.exact_trainings,
            point.screened_trainings,
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
        [flag, path] if flag == "--screening" => {
            let report = collect_screening();
            report.validate()?;
            write_enveloped(&report, path)?;
            eprintln!("wrote {} screening points to {path}", report.points.len());
            Ok(())
        }
        [flag, path] if flag == "--check" => check(path),
        _ => Err("usage: trajectory --emit <path> | --sequential <path> | \
                  --screening <path> | --check <path>"
            .to_string()),
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
