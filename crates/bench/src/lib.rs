//! # stc-bench
//!
//! Experiment harness reproducing every table and figure of the DATE 2005
//! paper, plus the ablations in [`experiments`] (the `ablation_*` functions).
//!
//! Each experiment is exposed as a library function and as a binary that
//! prints the same rows/series the paper reports:
//!
//! ```text
//! cargo run --release -p stc-bench --bin table1
//! cargo run --release -p stc-bench --bin figure5
//! cargo run --release -p stc-bench --bin figure6
//! cargo run --release -p stc-bench --bin table2
//! cargo run --release -p stc-bench --bin table3
//! cargo run --release -p stc-bench --bin ablations
//! ```
//!
//! The `STC_SCALE` environment variable scales the population sizes
//! (1.0 = the paper's instance counts; 0.2 = a quick smoke run).
//!
//! Two more binaries write the deterministic reports CI byte-diffs against
//! `crates/bench/snapshots/`: `jobs` runs a job-spec file through the
//! service, and `trajectory` emits the solver and sequential-deploy
//! counters ([`trajectory`]).  Wall time is measured by the
//! separate `perfbench` workspace, not by this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod populations;
pub mod trajectory;

/// Population scale factor read from `STC_SCALE` (default 1.0, clamped to
/// `[0.02, 1.0]`).
pub fn scale() -> f64 {
    std::env::var("STC_SCALE")
        .ok()
        .and_then(|value| value.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.02, 1.0)
}

/// Worker threads used for Monte-Carlo simulation (defaults to the number of
/// available CPUs, capped at 16).
pub fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// Scales an instance count, keeping at least `minimum`.
pub fn scaled(count: usize, minimum: usize) -> usize {
    ((count as f64 * scale()) as usize).max(minimum)
}
