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
//! A one-thread batch on a fresh cache must reproduce the four-thread one,
//! and running the batch twice demonstrates the shared Monte-Carlo
//! population cache: the second run reuses every simulated population.

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

    let parallel = batch(4);
    let report = parallel.run()?;
    for run in &report.runs {
        println!("{:<14} {}", run.label, run.report.summary());
    }
    println!("\n{}", report.summary());
    println!(
        "population cache: {} hits / {} misses",
        report.population_cache_hits, report.population_cache_misses
    );

    // The worker count never changes the outcome: a one-thread batch on a
    // fresh cache reproduces every entry and the aggregate.
    let sequential = batch(1).run()?;
    for (a, b) in report.runs.iter().zip(&sequential.runs) {
        assert_eq!(a.report.compaction, b.report.compaction, "{}", a.label);
        assert_eq!(a.report.deployed, b.report.deployed, "{}", a.label);
    }
    assert_eq!(report.aggregate, sequential.aggregate);

    // Same batch again: every population comes from the shared cache now.
    let again = parallel.run()?;
    println!(
        "second run:       {} hits / {} misses",
        again.population_cache_hits, again.population_cache_misses
    );
    assert_eq!(again.population_cache_hits - report.population_cache_hits, variants.len());
    assert_eq!(again.population_cache_misses, report.population_cache_misses);
    Ok(())
}
