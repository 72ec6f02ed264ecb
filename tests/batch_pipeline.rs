//! Integration tests of the batched pipeline layer: a `PipelineBatch` over N
//! devices must be indistinguishable from N independent
//! `CompactionPipeline::run` calls, for any worker count, and a population
//! simulated once and added as a measured entry must run like the device
//! entry that simulates it.

use proptest::prelude::*;
use spec_test_compaction::prelude::*;

fn devices(count: usize) -> Vec<SyntheticDevice> {
    (0..count).map(|i| SyntheticDevice::new(3 + i % 4, 1.5 + 0.1 * (i % 3) as f64, 0.9)).collect()
}

fn batch<'d>(devices: &'d [SyntheticDevice], seed: u64, threads: usize) -> PipelineBatch<'d> {
    let mut batch = PipelineBatch::new()
        .monte_carlo(MonteCarloConfig::new(200).with_seed(seed))
        .test_instances(100)
        .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
        .classifier(SvmBackend::paper_default())
        .batch_threads(threads);
    for device in devices {
        batch = batch.device(device);
    }
    batch
}

fn single(device: &SyntheticDevice, seed: u64) -> PipelineReport {
    CompactionPipeline::for_device(device)
        .monte_carlo(MonteCarloConfig::new(200).with_seed(seed))
        .test_instances(100)
        .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
        .classifier(SvmBackend::paper_default())
        .run()
        .expect("single pipeline runs")
}

/// Compares the observable outcome of two pipeline reports (`PipelineReport`
/// carries trained models, so it has no blanket `PartialEq`).
fn assert_reports_equal(a: &PipelineReport, b: &PipelineReport) {
    assert_eq!(a.device, b.device);
    assert_eq!(a.backend, b.backend);
    assert_eq!(a.train_instances, b.train_instances);
    assert_eq!(a.test_instances, b.test_instances);
    assert_eq!(a.train_yield, b.train_yield);
    assert_eq!(a.test_yield, b.test_yield);
    assert_eq!(a.compaction, b.compaction);
    assert_eq!(a.deployed, b.deployed);
    assert_eq!(a.guard_band, b.guard_band);
    assert_eq!(a.cost, b.cost);
    assert_eq!(a.tester.kept(), b.tester.kept());
}

#[test]
fn batch_over_n_devices_equals_n_independent_runs() {
    let devices = devices(5);
    let report = batch(&devices, 23, 1).run().expect("batch runs");
    assert_eq!(report.runs.len(), devices.len());
    for (run, device) in report.runs.iter().zip(devices.iter()) {
        assert_reports_equal(&run.report, &single(device, 23));
    }
}

#[test]
fn worker_pool_size_does_not_change_the_batch_outcome() {
    let devices = devices(6);
    let sequential = batch(&devices, 31, 1).run().expect("sequential batch runs");
    for threads in [2, 4, 8] {
        let parallel = batch(&devices, 31, threads).run().expect("parallel batch runs");
        assert_eq!(sequential.runs.len(), parallel.runs.len());
        for (a, b) in sequential.runs.iter().zip(parallel.runs.iter()) {
            assert_eq!(a.label, b.label);
            assert_reports_equal(&a.report, &b.report);
        }
        assert_eq!(sequential.aggregate, parallel.aggregate);
    }
}

/// The route for running several batches over one population: simulate it
/// once with `generate_train_test` and add the sets with
/// `PipelineBatch::measured`.  Each measured entry reports what the device
/// entry simulating the same population reports, under its label.
#[test]
fn measured_populations_run_like_the_devices_that_simulate_them() {
    let devices = devices(3);
    let simulated = batch(&devices, 47, 2).run().expect("simulated batch runs");
    let mut measured = PipelineBatch::new()
        .compaction(CompactionConfig::paper_default().with_tolerance(0.05))
        .classifier(SvmBackend::paper_default())
        .batch_threads(2);
    for (device, run) in devices.iter().zip(&simulated.runs) {
        let (train, test) =
            generate_train_test(device, &MonteCarloConfig::new(200).with_seed(47), 100)
                .expect("population simulates");
        measured = measured.measured(run.label.clone(), train, test);
    }
    let measured = measured.run().expect("measured batch runs");
    for (a, b) in simulated.runs.iter().zip(&measured.runs) {
        assert_eq!(a.label, b.label);
        assert_eq!(b.report.device, b.label);
        let renamed = PipelineReport { device: a.report.device.clone(), ..b.report.clone() };
        assert_reports_equal(&a.report, &renamed);
    }
    assert_eq!(simulated.aggregate, measured.aggregate);
}

#[test]
fn greedy_loop_model_cache_hits_whenever_tests_are_eliminated() {
    let devices = devices(4);
    let report = batch(&devices, 23, 2).run().expect("batch runs");
    for run in &report.runs {
        if !run.report.eliminated().is_empty() {
            assert!(
                run.report.compaction.cache.hits >= 1,
                "{}: eliminated {:?} but cache stats {:?}",
                run.label,
                run.report.eliminated(),
                run.report.compaction.cache
            );
        }
    }
    assert!(report.aggregate.model_cache_hits >= 1, "no run eliminated anything");
    assert_eq!(
        report.aggregate.model_cache_hits,
        report.reports().map(|r| r.compaction.cache.hits).sum::<usize>()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For arbitrary seeds and batch sizes the batch report equals the
    /// independent single-device runs, entry by entry.
    #[test]
    fn batch_matches_singles_for_arbitrary_seeds(seed in 0u64..500, count in 2usize..5) {
        let devices = devices(count);
        let report = batch(&devices, seed, 2).run().expect("batch runs");
        prop_assert_eq!(report.runs.len(), count);
        for (run, device) in report.runs.iter().zip(devices.iter()) {
            let independent = single(device, seed);
            prop_assert_eq!(&run.report.compaction, &independent.compaction);
            prop_assert_eq!(run.report.deployed, independent.deployed);
            prop_assert_eq!(run.report.cost, independent.cost);
        }
    }
}
