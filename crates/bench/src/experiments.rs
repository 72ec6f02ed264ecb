//! The experiments of the paper, one function per table/figure plus the
//! ablations (`ablation_*`: four design choices and the ad-hoc baseline).

use spec_test_compaction::adapters::AccelerometerDevice;
use stc_core::report::{percent, render_breakdown, render_specification_table, render_table};
use stc_core::{
    baseline, gridmodel, CompactionConfig, CompactionStep, Compactor, EliminationOrder,
    ErrorBreakdown, GuardBandConfig, MeasurementSet, Prediction,
};
use stc_mems::TestTemperature;
use stc_svm::{Kernel, SvmBackend, Svr, SvrParams};

/// The classifier backend the paper's tables are produced with: the ε-SVM,
/// configured from the guard-band settings of each experiment.
fn svm(guard_band: &GuardBandConfig) -> SvmBackend {
    SvmBackend::from_guard_band(guard_band)
}

/// Indices of the eleven op-amp specifications in measurement order
/// (see `OpAmpMeasurements::names`).
pub mod opamp_spec {
    /// Open-loop DC gain.
    pub const GAIN: usize = 0;
    /// -3 dB bandwidth.
    pub const BANDWIDTH_3DB: usize = 1;
    /// Unity-gain frequency.
    pub const UNITY_GAIN_FREQUENCY: usize = 2;
    /// Slew rate.
    pub const SLEW_RATE: usize = 3;
    /// Rise time.
    pub const RISE_TIME: usize = 4;
    /// Overshoot.
    pub const OVERSHOOT: usize = 5;
    /// Settling time.
    pub const SETTLING_TIME: usize = 6;
    /// Quiescent current.
    pub const QUIESCENT_CURRENT: usize = 7;
    /// Common-mode gain.
    pub const COMMON_MODE_GAIN: usize = 8;
    /// Power-supply gain.
    pub const POWER_SUPPLY_GAIN: usize = 9;
    /// Short-circuit current.
    pub const SHORT_CIRCUIT_CURRENT: usize = 10;
}

/// The functional elimination order used for the Figure 5 sweep: the
/// time/frequency-domain specifications that all derive from the dominant
/// pole and the output stage are examined first, the first-order
/// specifications (gain, slew rate, quiescent current) are kept to the end.
pub fn opamp_functional_order() -> Vec<usize> {
    vec![
        opamp_spec::RISE_TIME,
        opamp_spec::SETTLING_TIME,
        opamp_spec::OVERSHOOT,
        opamp_spec::BANDWIDTH_3DB,
        opamp_spec::UNITY_GAIN_FREQUENCY,
        opamp_spec::POWER_SUPPLY_GAIN,
        opamp_spec::SHORT_CIRCUIT_CURRENT,
        opamp_spec::COMMON_MODE_GAIN,
    ]
}

/// **Table 1** — the op-amp specification table (name, unit, nominal, range)
/// together with the training/test yields the ranges imply.
pub fn table1(train: &MeasurementSet, test: &MeasurementSet) -> String {
    let mut out = String::new();
    out.push_str("Table 1: operational-amplifier specifications and acceptability ranges\n\n");
    out.push_str(&render_specification_table(train.specs()));
    out.push_str(&format!(
        "\nTraining yield: {}   (paper: 75.4%)\nTest yield:     {}   (paper: 84.8%)\n",
        percent(train.yield_fraction()),
        percent(test.yield_fraction()),
    ));
    out
}

/// **Figure 5** — yield loss, defect escape and guard-band population as the
/// specification tests are cumulatively eliminated in the functional order.
///
/// Returns the per-step breakdowns together with the rendered table.
///
/// # Panics
///
/// Panics if the sweep cannot be evaluated (broken population).
pub fn figure5(
    train: &MeasurementSet,
    test: &MeasurementSet,
    guard_band: &GuardBandConfig,
) -> (Vec<CompactionStep>, String) {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let steps = compactor
        .elimination_sweep_with(&svm(guard_band), &opamp_functional_order(), guard_band)
        .expect("elimination sweep failed");
    let header = vec![
        "Eliminated test (cumulative)".to_string(),
        "Yield loss".to_string(),
        "Defect escape".to_string(),
        "In guard band".to_string(),
    ];
    let rows: Vec<Vec<String>> = steps
        .iter()
        .map(|step| {
            vec![
                step.spec_name.clone(),
                percent(step.breakdown.yield_loss()),
                percent(step.breakdown.defect_escape()),
                percent(step.breakdown.guard_band_fraction()),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str("Figure 5: error versus cumulatively eliminated op-amp tests\n\n");
    out.push_str(&render_table(&header, &rows));
    (steps, out)
}

/// **Figure 6** — yield loss, defect escape and guard-band population versus
/// the number of training instances, with the 3-dB-bandwidth test eliminated.
///
/// Returns `(training-set sizes, breakdowns, rendered table)`.
///
/// # Panics
///
/// Panics if a model cannot be trained for one of the sizes.
pub fn figure6(
    train: &MeasurementSet,
    test: &MeasurementSet,
    sizes: &[usize],
    guard_band: &GuardBandConfig,
) -> (Vec<ErrorBreakdown>, String) {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let breakdowns: Vec<ErrorBreakdown> = sizes
        .iter()
        .map(|&size| {
            compactor
                .eliminate_single_with(
                    &svm(guard_band),
                    opamp_spec::BANDWIDTH_3DB,
                    size,
                    guard_band,
                )
                .expect("single-spec elimination failed")
        })
        .collect();
    let header = vec![
        "Training instances".to_string(),
        "Yield loss".to_string(),
        "Defect escape".to_string(),
        "In guard band".to_string(),
    ];
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .zip(breakdowns.iter())
        .map(|(&size, b)| {
            vec![
                size.to_string(),
                percent(b.yield_loss()),
                percent(b.defect_escape()),
                percent(b.guard_band_fraction()),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str(
        "Figure 6: error versus number of training instances (3-dB bandwidth eliminated)\n\n",
    );
    out.push_str(&render_table(&header, &rows));
    (breakdowns, out)
}

/// **Table 2** — the accelerometer specification table (room-temperature
/// columns) together with the training/test yields over all twelve tests.
pub fn table2(train: &MeasurementSet, test: &MeasurementSet) -> String {
    let mut out = String::new();
    out.push_str("Table 2: MEMS accelerometer specifications and acceptability ranges\n\n");
    out.push_str(&render_specification_table(train.specs()));
    out.push_str(&format!(
        "\nTraining yield: {}   (paper: 77.4%)\nTest yield:     {}   (paper: 79.3%)\n",
        percent(train.yield_fraction()),
        percent(test.yield_fraction()),
    ));
    out
}

/// **Table 3** — defect escape, yield loss and guard-band population when the
/// cold (-40 °C), hot (+80 °C) or both temperature insertions are eliminated
/// and their outcomes are predicted from the remaining measurements.
///
/// Returns the three breakdowns (cold, hot, both) and the rendered table,
/// including the test-cost reduction the compaction buys.
///
/// # Panics
///
/// Panics if a group elimination cannot be evaluated.
pub fn table3(
    train: &MeasurementSet,
    test: &MeasurementSet,
    guard_band: &GuardBandConfig,
) -> (Vec<ErrorBreakdown>, String) {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let cold = AccelerometerDevice::temperature_group(TestTemperature::Cold);
    let hot = AccelerometerDevice::temperature_group(TestTemperature::Hot);
    let both: Vec<usize> = cold.iter().chain(hot.iter()).copied().collect();
    let cases = [("-40", cold.clone()), ("80", hot.clone()), ("Both", both.clone())];
    let cost_model = AccelerometerDevice::cost_model();

    let mut breakdowns = Vec::new();
    let header = vec![
        "Eliminated test".to_string(),
        "Defect escape (%)".to_string(),
        "Yield loss (%)".to_string(),
        "Predictions in guard band (%)".to_string(),
        "Test-cost reduction".to_string(),
    ];
    let mut rows = Vec::new();
    for (label, group) in &cases {
        let breakdown = compactor
            .eliminate_group_with(&svm(guard_band), group, guard_band)
            .expect("temperature-group elimination failed");
        let kept: Vec<usize> = (0..12).filter(|c| !group.contains(c)).collect();
        let reduction = cost_model.cost_reduction(&kept).expect("kept set is valid");
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", breakdown.defect_escape() * 100.0),
            format!("{:.1}", breakdown.yield_loss() * 100.0),
            format!("{:.1}", breakdown.guard_band_fraction() * 100.0),
            percent(reduction),
        ]);
        breakdowns.push(breakdown);
    }
    let mut out = String::new();
    out.push_str("Table 3: eliminating the accelerometer temperature insertions\n\n");
    out.push_str(&render_table(&header, &rows));
    out.push_str("\n(paper: DE 0.1/0.1/0.2 %, YL 0.0/0.1/0.1 %, guard band 2.6/5.8/8.4 %;\n");
    out.push_str(" eliminating both insertions reduces test cost by more than half)\n");
    (breakdowns, out)
}

/// **Ablation A (Section 4.1)** — classification versus regression modelling:
/// predict the overall outcome with the guard-banded SVC (the paper's choice)
/// versus predicting the *value* of the eliminated specification with an
/// ε-SVR and checking it against the range.
///
/// Returns `(classification error, regression error, rendered summary)`.
///
/// # Panics
///
/// Panics if either model cannot be trained.
pub fn ablation_classification_vs_regression(
    train: &MeasurementSet,
    test: &MeasurementSet,
    eliminated: usize,
    guard_band: &GuardBandConfig,
) -> (f64, f64, String) {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let kept: Vec<usize> = (0..train.specs().len()).filter(|&c| c != eliminated).collect();

    // Classification path (the paper's method).
    let (_, classification) = compactor
        .evaluate_kept_set_with(&svm(guard_band), &kept, guard_band)
        .expect("classification model trains");

    // Regression path: fit the eliminated specification from the kept ones,
    // then apply the original range to the predicted value.
    let rows: Vec<Vec<f64>> = (0..train.len()).map(|i| train.features(i, &kept)).collect();
    let targets: Vec<f64> = (0..train.len())
        .map(|i| train.specs().spec(eliminated).normalize(train.value(i, eliminated)))
        .collect();
    let regression_data = stc_svm::Dataset::from_rows(&rows, &targets).expect("finite features");
    let svr = Svr::train(
        &regression_data,
        &SvrParams::new().with_c(10.0).with_epsilon(0.02).with_kernel(Kernel::rbf(1.0)),
    )
    .expect("regression model trains");
    let mut regression = ErrorBreakdown::default();
    for i in 0..test.len() {
        let truth = test.label(i);
        let kept_pass = kept.iter().all(|&c| test.specs().spec(c).passes(test.value(i, c)));
        let predicted_normalised = svr.predict(&test.features(i, &kept));
        let predicted_pass = (0.0..=1.0).contains(&predicted_normalised);
        let prediction =
            if kept_pass && predicted_pass { Prediction::Good } else { Prediction::Bad };
        regression.record(truth, prediction);
    }

    let spec_name = train.specs().spec(eliminated).name().to_string();
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation A: classification vs regression when eliminating '{spec_name}'\n\n"
    ));
    out.push_str(&render_breakdown("  classification (paper)", &classification));
    out.push('\n');
    out.push_str(&render_breakdown("  regression (alternate)", &regression));
    out.push('\n');
    (classification.prediction_error(), regression.prediction_error(), out)
}

/// **Ablation B (Section 4.2)** — guard-band width trade-off: prediction
/// error versus the fraction of devices parked in the guard band.
///
/// # Panics
///
/// Panics if a model cannot be trained for one of the widths.
pub fn ablation_guardband(
    train: &MeasurementSet,
    test: &MeasurementSet,
    eliminated: &[usize],
    widths: &[f64],
) -> String {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let kept: Vec<usize> = (0..train.specs().len()).filter(|c| !eliminated.contains(c)).collect();
    let header = vec![
        "Guard band".to_string(),
        "Yield loss".to_string(),
        "Defect escape".to_string(),
        "In guard band".to_string(),
    ];
    let rows: Vec<Vec<String>> = widths
        .iter()
        .map(|&width| {
            let config =
                GuardBandConfig::paper_default().with_guard_band(width).expect("finite width");
            let (_, breakdown) = compactor
                .evaluate_kept_set_with(&svm(&config), &kept, &config)
                .expect("guard-band model trains");
            vec![
                percent(width),
                percent(breakdown.yield_loss()),
                percent(breakdown.defect_escape()),
                percent(breakdown.guard_band_fraction()),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str("Ablation B: guard-band width trade-off\n\n");
    out.push_str(&render_table(&header, &rows));
    out
}

/// **Ablation C (Section 3.2)** — elimination-order strategies compared at a
/// fixed error tolerance.
///
/// # Panics
///
/// Panics if a compaction run fails.
pub fn ablation_ordering(
    train: &MeasurementSet,
    test: &MeasurementSet,
    tolerance: f64,
    guard_band: &GuardBandConfig,
) -> String {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let strategies: Vec<(&str, EliminationOrder)> = vec![
        ("functional", EliminationOrder::Functional(opamp_functional_order())),
        ("classification power", EliminationOrder::ByClassificationPower),
        ("correlation clustering", EliminationOrder::ByCorrelationClustering),
        ("random (seed 1)", EliminationOrder::Random { seed: 1 }),
    ];
    let header = vec![
        "Ordering".to_string(),
        "Tests eliminated".to_string(),
        "Final yield loss".to_string(),
        "Final defect escape".to_string(),
    ];
    let rows: Vec<Vec<String>> = strategies
        .into_iter()
        .map(|(label, order)| {
            let config = CompactionConfig::paper_default()
                .with_tolerance(tolerance)
                .with_order(order)
                .with_guard_band(*guard_band);
            let result =
                compactor.compact_with(&svm(guard_band), &config).expect("compaction run failed");
            vec![
                label.to_string(),
                format!("{} of {}", result.eliminated.len(), train.specs().len()),
                percent(result.final_breakdown.yield_loss()),
                percent(result.final_breakdown.defect_escape()),
            ]
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation C: elimination-order strategies (tolerance {})\n\n",
        percent(tolerance)
    ));
    out.push_str(&render_table(&header, &rows));
    out
}

/// **Ablation D (Section 4.3)** — grid-based training-data compression:
/// compressed set size and resulting model error versus grid resolution.
///
/// # Panics
///
/// Panics if compression or training fails.
pub fn ablation_grid(
    train: &MeasurementSet,
    test: &MeasurementSet,
    eliminated: &[usize],
    resolutions: &[usize],
    guard_band: &GuardBandConfig,
) -> String {
    let kept: Vec<usize> = (0..train.specs().len()).filter(|c| !eliminated.contains(c)).collect();
    let header = vec![
        "Grid cells/dim".to_string(),
        "Training instances".to_string(),
        "Yield loss".to_string(),
        "Defect escape".to_string(),
    ];
    let mut rows = Vec::new();
    // Reference: no compression.
    let reference = Compactor::new(train.clone(), test.clone())
        .and_then(|c| c.evaluate_kept_set_with(&svm(guard_band), &kept, guard_band).map(|(_, b)| b))
        .expect("reference model trains");
    rows.push(vec![
        "none".to_string(),
        train.len().to_string(),
        percent(reference.yield_loss()),
        percent(reference.defect_escape()),
    ]);
    for &resolution in resolutions {
        let compressed =
            gridmodel::compress_training_data(train, resolution).expect("compression succeeds");
        let compactor =
            Compactor::new(compressed.clone(), test.clone()).expect("populations are valid");
        let (_, breakdown) = compactor
            .evaluate_kept_set_with(&svm(guard_band), &kept, guard_band)
            .expect("compressed model trains");
        rows.push(vec![
            resolution.to_string(),
            compressed.len().to_string(),
            percent(breakdown.yield_loss()),
            percent(breakdown.defect_escape()),
        ]);
    }
    let mut out = String::new();
    out.push_str("Ablation D: grid-based training-data compression\n\n");
    out.push_str(&render_table(&header, &rows));
    out
}

/// **Baseline** — ad-hoc compaction versus the statistical model on the same
/// dropped-test set.
///
/// # Panics
///
/// Panics if either evaluation fails.
pub fn ablation_adhoc(
    train: &MeasurementSet,
    test: &MeasurementSet,
    dropped: &[usize],
    guard_band: &GuardBandConfig,
) -> String {
    let compactor = Compactor::new(train.clone(), test.clone()).expect("populations are valid");
    let statistical = compactor
        .eliminate_group_with(&svm(guard_band), dropped, guard_band)
        .expect("statistical model trains");
    let adhoc = baseline::evaluate_adhoc(test, dropped).expect("ad-hoc evaluation succeeds");
    let names: Vec<&str> = dropped.iter().map(|&c| train.specs().spec(c).name()).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "Baseline: dropping {:?} without vs with a statistical model\n\n",
        names
    ));
    out.push_str(&render_breakdown("  ad-hoc (no model)  ", &adhoc.breakdown));
    out.push('\n');
    out.push_str(&render_breakdown("  statistical (paper)", &statistical));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stc_core::{generate_train_test, MonteCarloConfig, SyntheticDevice};

    /// The experiment plumbing is exercised on a synthetic population so the
    /// unit tests stay fast; the real op-amp/MEMS runs happen in the bin
    /// targets and integration tests.
    fn synthetic_population() -> (MeasurementSet, MeasurementSet) {
        let device = SyntheticDevice::new(11, 1.8, 0.9);
        generate_train_test(&device, &MonteCarloConfig::new(300).with_seed(3), 150).unwrap()
    }

    fn synthetic_mems_population() -> (MeasurementSet, MeasurementSet) {
        let device = SyntheticDevice::new(12, 1.8, 0.9);
        generate_train_test(&device, &MonteCarloConfig::new(300).with_seed(4), 150).unwrap()
    }

    #[test]
    fn functional_order_addresses_valid_specs() {
        let order = opamp_functional_order();
        assert!(order.iter().all(|&i| i < 11));
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn table_and_figure_renderers_produce_output() {
        let (train, test) = synthetic_population();
        let guard_band = GuardBandConfig::paper_default();
        assert!(table1(&train, &test).contains("Training yield"));
        let (steps, fig5) = figure5(&train, &test, &guard_band);
        assert_eq!(steps.len(), 8);
        assert!(fig5.contains("Figure 5"));
        let (breakdowns, fig6) = figure6(&train, &test, &[100, 300], &guard_band);
        assert_eq!(breakdowns.len(), 2);
        assert!(fig6.contains("Training instances"));
    }

    #[test]
    fn table3_and_cost_reduction_render() {
        let (train, test) = synthetic_mems_population();
        let guard_band = GuardBandConfig::paper_default();
        let (breakdowns, rendered) = table3(&train, &test, &guard_band);
        assert_eq!(breakdowns.len(), 3);
        assert!(rendered.contains("Table 3"));
        assert!(rendered.contains("Test-cost reduction"));
        assert!(table2(&train, &test).contains("Training yield"));
    }

    #[test]
    fn ablations_render() {
        let (train, test) = synthetic_population();
        let guard_band = GuardBandConfig::paper_default();
        let (class_error, reg_error, summary) =
            ablation_classification_vs_regression(&train, &test, 1, &guard_band);
        assert!(summary.contains("classification"));
        assert!(class_error >= 0.0 && reg_error >= 0.0);
        assert!(ablation_guardband(&train, &test, &[1], &[0.02, 0.05]).contains("Guard band"));
        assert!(ablation_adhoc(&train, &test, &[1], &guard_band).contains("ad-hoc"));
        assert!(ablation_grid(&train, &test, &[1], &[8], &guard_band).contains("Grid cells/dim"));
    }
}
