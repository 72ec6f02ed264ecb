//! Predicts the hot and cold temperature-test outcomes of the MEMS
//! accelerometer from its room-temperature measurements (the paper's second
//! case study), eliminating the expensive thermal insertions, and asserts
//! the seed-2005 outcome: the Table 3 breakdown of each thermal group and
//! the staged pipeline's kept set, deployed counts and kernel-row bank
//! counters.
//!
//! ```text
//! cargo run --release --example mems_temperature
//! ```

use spec_test_compaction::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = AccelerometerDevice::paper_setup();
    let config = MonteCarloConfig::new(800)
        .with_seed(2005)
        .with_threads(8)
        .with_calibration_quantiles(0.075, 0.925);
    eprintln!("simulating 800 training + 400 test accelerometer instances ...");
    let (train, test) = generate_train_test(&device, &config, 400)?;
    println!(
        "training yield {:.1}%, test yield {:.1}% over all 12 temperature tests\n",
        train.yield_fraction() * 100.0,
        test.yield_fraction() * 100.0
    );

    let compactor = Compactor::new(train, test)?;
    let svm = SvmBackend::paper_default();
    let guard_band = GuardBandConfig::paper_default();
    let cost_model = AccelerometerDevice::cost_model();

    let cold = AccelerometerDevice::temperature_group(TestTemperature::Cold);
    let hot = AccelerometerDevice::temperature_group(TestTemperature::Hot);
    let both: Vec<usize> = cold.iter().chain(hot.iter()).copied().collect();

    // Good kept, bad rejected, yield losses, defect escapes and guard-band
    // devices of the 400 held-out accelerometers.
    let expected = [[282, 92, 0, 0, 26], [282, 92, 0, 0, 26], [279, 92, 0, 0, 29]];
    for ((label, group), counts) in
        [("cold (-40C)", &cold), ("hot (+80C)", &hot), ("both", &both)].into_iter().zip(expected)
    {
        let breakdown = compactor.eliminate_group_with(&svm, group, &guard_band)?;
        assert_eq!(breakdown_counts(&breakdown), counts, "eliminating {label}");
        let kept: Vec<usize> = (0..12).filter(|c| !group.contains(c)).collect();
        println!(
            "eliminate {label:<12}: defect escape {:.1}%, yield loss {:.1}%, guard band {:.1}%, cost saved {:.0}%",
            breakdown.defect_escape() * 100.0,
            breakdown.yield_loss() * 100.0,
            breakdown.guard_band_fraction() * 100.0,
            cost_model.cost_reduction(&kept)? * 100.0
        );
    }
    println!("\nthe hot and cold insertions can be dropped for a small, guard-banded error,");
    println!("cutting the thermal-soak test cost by more than half (paper Table 3).");

    // The same elimination driven by the staged pipeline: examine the
    // thermal tests in functional order and let the tolerance decide.  The
    // pipeline simulates its own population, so a reduced size (and a fresh
    // seed) keeps the demo from re-paying the full Monte-Carlo cost above.
    eprintln!("\nrunning the staged pipeline over the thermal tests ...");
    let report = device
        .paper_pipeline()
        .monte_carlo(
            MonteCarloConfig::new(400)
                .with_seed(2006)
                .with_threads(8)
                .with_calibration_quantiles(0.075, 0.925),
        )
        .test_instances(200)
        .compaction(
            CompactionConfig::paper_default()
                .with_tolerance(0.05)
                .with_order(EliminationOrder::Functional(both.clone()))
                .with_threads(4),
        )
        .run()?;
    println!("{}", report.summary());

    // Every thermal test goes; the four room-temperature tests stay.
    assert_eq!(report.kept(), [4, 5, 6, 7]);
    assert_eq!(breakdown_counts(&report.deployed), [145, 42, 1, 0, 12]);
    let bank = &report.warm_start().bank;
    assert_eq!((bank.seeded_rows, bank.rebuilt_rows, bank.ignored_banks), (1302, 265, 0));
    Ok(())
}

/// `[true good, true bad, yield losses, defect escapes, guard band]`.
fn breakdown_counts(breakdown: &ErrorBreakdown) -> [usize; 5] {
    [
        breakdown.true_good,
        breakdown.true_bad,
        breakdown.yield_loss_count,
        breakdown.defect_escape_count,
        breakdown.guard_band_count,
    ]
}
