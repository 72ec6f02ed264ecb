//! Compacts the eleven-specification test suite of the two-stage CMOS op-amp
//! (the paper's first case study) on 600 + 300 instances at seed 2005, and
//! asserts the outcome: the kept tests, the number eliminated and the deployed
//! tester's defect escapes and yield losses on the held-out instances.
//!
//! ```text
//! cargo run --release --example opamp_compaction
//! ```
//!
//! Use `--release`: every instance is a transistor-level simulation (DC, AC
//! and transient analyses for all eleven specifications).

use spec_test_compaction::core::report::render_specification_table;
use spec_test_compaction::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = OpAmpDevice::paper_setup();
    eprintln!("simulating 600 training + 300 test op-amp instances ...");
    let report = device
        .paper_pipeline()
        .monte_carlo(
            MonteCarloConfig::new(600)
                .with_seed(2005)
                .with_threads(8)
                .with_calibration_quantiles(0.02, 0.98),
        )
        .test_instances(300)
        .compaction(CompactionConfig::paper_default().with_tolerance(0.01).with_threads(4))
        .run()?;

    println!("calibrated acceptability ranges:\n");
    println!("{}", render_specification_table(report.tester.specs()));
    println!(
        "training yield {:.1}%, test yield {:.1}%\n",
        report.train_yield * 100.0,
        report.test_yield * 100.0
    );

    println!("compaction at 1% tolerance [{} backend]:", report.backend);
    for step in &report.compaction.steps {
        println!(
            "  {:<22} {}  (yield loss {:.2}%, defect escape {:.2}%)",
            step.spec_name,
            if step.eliminated { "eliminated" } else { "kept      " },
            step.breakdown.yield_loss() * 100.0,
            step.breakdown.defect_escape() * 100.0
        );
    }
    println!(
        "\n{} of 11 tests eliminated; remaining tests: {:?}",
        report.eliminated().len(),
        report.tester.kept_names()
    );
    println!("test-cost reduction: {:.0}%", report.cost.reduction * 100.0);
    println!(
        "deployed on {} held-out instances: {} defect escapes, {} yield losses",
        report.deployed.total,
        report.deployed.defect_escape_count,
        report.deployed.yield_loss_count
    );

    // Slew rate, rise time, settling time, CM gain, PS gain and Isc stay.
    assert_eq!(report.kept(), [3, 4, 6, 8, 9, 10]);
    assert_eq!(report.eliminated().len(), 5);
    assert_eq!(report.deployed.defect_escape_count, 2);
    assert_eq!(report.deployed.yield_loss_count, 1);
    Ok(())
}
