//! Batched compaction across a device family: one pipeline configuration,
//! many devices, one report.
//!
//! ```text
//! cargo run --release --example batch_compaction
//! ```
//!
//! Sweeps four synthetic device variants (increasingly tight acceptance
//! limits) through the same ε-SVM compaction flow with a work-stealing
//! worker pool, then prints the per-device outcomes and the batch aggregate.
//! A one-thread batch must reproduce the four-thread one.

use spec_test_compaction::prelude::*;

fn main() -> Result<(), CompactionError> {
    let variants: Vec<(String, SyntheticDevice)> = [1.2, 1.5, 1.8, 2.1]
        .iter()
        .map(|&limit| (format!("limit ±{limit}σ"), SyntheticDevice::new(6, limit, 0.9)))
        .collect();

    let batch = |threads: usize| {
        let mut batch = PipelineBatch::new()
            .monte_carlo(MonteCarloConfig::new(400).with_seed(2005))
            .test_instances(200)
            .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
            .classifier(SvmBackend::paper_default())
            .batch_threads(threads);
        for (label, device) in &variants {
            batch = batch.device_labelled(label.clone(), device);
        }
        batch
    };

    let report = batch(4).run()?;
    for run in &report.runs {
        println!("{:<14} {}", run.label, run.report.summary());
    }
    println!("\n{}", report.summary());

    // The worker count never changes the outcome: a one-thread batch
    // reproduces every entry and the aggregate.
    let sequential = batch(1).run()?;
    for (a, b) in report.runs.iter().zip(&sequential.runs) {
        assert_eq!(a.report.compaction, b.report.compaction, "{}", a.label);
        assert_eq!(a.report.deployed, b.report.deployed, "{}", a.label);
    }
    assert_eq!(report.aggregate, sequential.aggregate);
    Ok(())
}
