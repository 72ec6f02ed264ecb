//! Runs the ablation studies of `stc_bench::experiments` (`ablation_*`):
//!
//! * A — classification versus regression modelling (Section 4.1),
//! * B — guard-band width trade-off (Section 4.2),
//! * C — elimination-order strategies (Section 3.2),
//! * D — grid-based training-data compression (Section 4.3),
//! * baseline — ad-hoc compaction versus the statistical model.

use stc_bench::experiments::{self, opamp_spec};
use stc_bench::{populations, scaled, threads};
use stc_core::GuardBandConfig;

fn main() {
    let train_instances = scaled(2000, 300);
    let test_instances = scaled(1000, 150);
    eprintln!(
        "building op-amp population: {train_instances} training + {test_instances} test instances"
    );
    let (train, test) =
        populations::opamp_population(train_instances, test_instances, 2005, threads());
    let guard_band = GuardBandConfig::paper_default();

    let (_, _, ablation_a) = experiments::ablation_classification_vs_regression(
        &train,
        &test,
        opamp_spec::BANDWIDTH_3DB,
        &guard_band,
    );
    println!("{ablation_a}");

    println!(
        "{}",
        experiments::ablation_guardband(
            &train,
            &test,
            &[opamp_spec::BANDWIDTH_3DB, opamp_spec::RISE_TIME],
            &[0.0, 0.02, 0.05, 0.10, 0.15],
        )
    );

    println!("{}", experiments::ablation_ordering(&train, &test, 0.01, &guard_band));

    println!(
        "{}",
        experiments::ablation_grid(
            &train,
            &test,
            &[opamp_spec::BANDWIDTH_3DB],
            &[4, 8, 16],
            &guard_band,
        )
    );

    println!(
        "{}",
        experiments::ablation_adhoc(
            &train,
            &test,
            &[opamp_spec::BANDWIDTH_3DB, opamp_spec::RISE_TIME, opamp_spec::SETTLING_TIME],
            &guard_band,
        )
    );
}
