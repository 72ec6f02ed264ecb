//! Wire-format round-trip properties: every serialized type must survive
//! `value -> JSON -> value` (equality for `PartialEq` types) and
//! `JSON -> value -> JSON` (byte-for-byte reserialization for reports).

use std::time::Duration;

use proptest::prelude::*;
use stc_core::pipeline::CompactionPipeline;
use stc_core::search::{CostAwareGreedy, FrontierSnapshot, ScreeningConfig, SearchBudget};
use stc_core::{
    BatchReport, CacheStats, CompactionConfig, EliminationOrder, GuardBandConfig, MeasurementSet,
    MonteCarloConfig, PipelineBatch, PipelineReport, Specification, SpecificationSet,
    SyntheticDevice, TestCostModel,
};
use stc_serve::{envelope, ClassifierSpec, DeviceSpec, JobSpec, ServeError, StrategySpec};

fn json_round_trip<T>(value: &T) -> T
where
    T: serde::ser::Serialize + for<'de> serde::de::Deserialize<'de>,
{
    let json = stc_serve::json::to_string(value).expect("serializes");
    let back: T = stc_serve::json::from_str(&json).expect("parses back");
    let json_again = stc_serve::json::to_string(&back).expect("reserializes");
    assert_eq!(json, json_again, "reserialization must be byte-identical");
    back
}

fn order_from(choice: usize, seed: u64, functional: Vec<usize>) -> EliminationOrder {
    match choice {
        0 => EliminationOrder::ByClassificationPower,
        1 => EliminationOrder::ByCorrelationClustering,
        2 => EliminationOrder::Random { seed },
        _ => EliminationOrder::Functional(functional),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn monte_carlo_config_round_trips(
        instances in 1usize..2000,
        seed in 0u64..u64::MAX,
        threads in 1usize..9,
        skip in 0usize..2,
        q_low in 0.0f64..0.2,
        q_high in 0.8f64..1.0,
    ) {
        let mut config = MonteCarloConfig::new(instances)
            .with_seed(seed)
            .with_threads(threads)
            .with_calibration_quantiles(q_low, q_high);
        config.skip_failures = skip == 1;
        prop_assert_eq!(json_round_trip(&config), config);
    }

    #[test]
    fn compaction_config_round_trips(
        tolerance in 0.0f64..0.5,
        order_choice in 0usize..4,
        order_seed in 0u64..1_000_000,
        functional in prop::collection::vec(0usize..12, 0..12),
        max_eliminated in 0usize..10,
        threads in 1usize..5,
        warm in 0usize..2,
        band in 0.0f64..0.2,
        trainings_cap in 1usize..500,
        landmarks in 1usize..64,
        shortlist in 1usize..16,
    ) {
        let mut config = CompactionConfig::paper_default()
            .with_tolerance(tolerance)
            .with_order(order_from(order_choice, order_seed, functional))
            .with_threads(threads)
            .with_warm_start(warm == 1)
            .with_guard_band(GuardBandConfig::paper_default().with_guard_band(band).unwrap())
            .with_budget(SearchBudget::unlimited().with_max_trainings(trainings_cap))
            .with_screening(ScreeningConfig::screened(landmarks, shortlist));
        if max_eliminated > 0 {
            config = config.with_max_eliminated(max_eliminated);
        }
        prop_assert_eq!(json_round_trip(&config), config);
    }

    #[test]
    fn search_budget_round_trips(
        trainings in 0usize..2,
        trainings_cap in 1usize..10_000,
        iterations in 0usize..2,
        iterations_cap in 1usize..1_000_000,
        deadline in 0usize..2,
        deadline_millis in 1u64..100_000,
    ) {
        let mut budget = SearchBudget::unlimited();
        if trainings == 1 {
            budget = budget.with_max_trainings(trainings_cap);
        }
        if iterations == 1 {
            budget = budget.with_max_solver_iterations(iterations_cap);
        }
        if deadline == 1 {
            budget = budget.with_deadline(Duration::from_millis(deadline_millis));
        }
        prop_assert_eq!(json_round_trip(&budget), budget);
    }

    #[test]
    fn cost_model_round_trips(
        per_test in prop::collection::vec(0.0f64..25.0, 1..8),
        insertion_cost in 0.0f64..40.0,
    ) {
        let tests = per_test.len();
        let model = TestCostModel::new(
            per_test,
            vec![0; tests],
            vec![insertion_cost],
        ).expect("valid cost model");
        prop_assert_eq!(json_round_trip(&model), model);
    }

    #[test]
    fn cache_stats_round_trip(hits in 0usize..10_000, misses in 0usize..10_000) {
        let stats = CacheStats { hits, misses };
        prop_assert_eq!(json_round_trip(&stats), stats);
    }

    #[test]
    fn job_spec_round_trips(
        instances in 20usize..400,
        seed in 0u64..1_000_000,
        tolerance in 0.01f64..0.3,
        strategy_choice in 0usize..3,
        classifier_choice in 0usize..2,
        shard_threads in 0usize..4,
        sequential_choice in 0usize..3,
    ) {
        let strategy = match strategy_choice {
            0 => StrategySpec::Greedy,
            1 => StrategySpec::CostAware,
            _ => StrategySpec::Annealing { seed, schedule: Default::default() },
        };
        let mut spec = JobSpec::new(
            vec![
                DeviceSpec::OpAmp,
                DeviceSpec::Synthetic { specs: 5, limit: 1.5, correlation: 0.8 },
            ],
            MonteCarloConfig::new(instances).with_seed(seed),
            CompactionConfig::paper_default().with_tolerance(tolerance),
        );
        spec.strategy = strategy;
        spec.classifier =
            if classifier_choice == 0 { ClassifierSpec::Grid } else { ClassifierSpec::Svm };
        spec.budget = Some(SearchBudget::unlimited().with_max_trainings(50));
        spec.screening = Some(ScreeningConfig::screened(24, 3));
        spec.shard_threads = shard_threads;
        spec.sequential = match sequential_choice {
            0 => None,
            1 => Some(false),
            _ => Some(true),
        };
        prop_assert_eq!(json_round_trip(&spec), spec);
    }
}

/// A tiny deterministic pipeline report for the report round-trip tests.
fn tiny_report() -> PipelineReport {
    let device = SyntheticDevice::new(4, 1.8, 0.9);
    CompactionPipeline::for_device(&device)
        .monte_carlo(MonteCarloConfig::new(90).with_seed(11))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("tiny pipeline runs")
}

#[test]
fn pipeline_report_round_trips_byte_for_byte() {
    let report = tiny_report();
    assert!(report.sequential.is_some(), "sequential deploy stats ship by default");
    let back = json_round_trip(&report);
    assert_eq!(back.kept(), report.kept());
    assert_eq!(back.eliminated(), report.eliminated());
    assert_eq!(back.summary(), report.summary());
    assert_eq!(back.sequential, report.sequential);
}

#[test]
fn pre_0_9_job_specs_still_parse() {
    // A spec serialized before the `sequential` field existed must keep
    // parsing, with the field at its pipeline default (None = enabled).
    let spec = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(50).with_seed(5),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = stc_serve::json::to_string(&spec).expect("serializes");
    let legacy = json.replacen(r#""sequential":null,"#, "", 1);
    assert_ne!(json, legacy, "the sequential field must be present to strip");
    let back: JobSpec = stc_serve::json::from_str(&legacy).expect("legacy spec parses");
    assert_eq!(back, spec);
}

#[test]
fn pre_0_10_job_specs_still_parse() {
    // A spec serialized before the `screening` field existed must keep
    // parsing, with the field at its pipeline default (None = inherit the
    // compaction config, which defaults to screening off).
    let spec = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(50).with_seed(5),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = stc_serve::json::to_string(&spec).expect("serializes");
    let legacy = json.replacen(r#""screening":null,"#, "", 1);
    assert_ne!(json, legacy, "the screening field must be present to strip");
    let back: JobSpec = stc_serve::json::from_str(&legacy).expect("legacy spec parses");
    assert_eq!(back, spec);
    assert!(!back.compaction.screening.enabled, "screening defaults off");
}

#[test]
fn removed_strategy_specs_fail_with_a_typed_error() {
    // Job specs naming a strategy removed in 0.12 must be refused by the
    // decoder with a typed error, never a panic or a silent fallback.
    let spec = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(50).with_seed(5),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let encoded = envelope::encode(&spec).expect("encodes");
    let greedy = r#""strategy":"Greedy""#;
    assert!(encoded.contains(greedy), "the strategy field must be present to replace");
    for removed in [
        r#"{"Beam":{"width":3}}"#,
        r#""ForwardSelection""#,
        r#"{"Genetic":{"seed":7,"population":8,"generations":4}}"#,
        r#"{"CmaEs":{"seed":7,"population":8,"generations":4,"sigma":0.3,"joint_guard_band":null}}"#,
        r#"{"ParticleSwarm":{"seed":7,"particles":8,"iterations":4,"inertia":0.7}}"#,
    ] {
        let legacy = encoded.replacen(greedy, &format!(r#""strategy":{removed}"#), 1);
        match envelope::decode::<JobSpec>(&legacy) {
            Err(ServeError::Json(_)) => {}
            other => panic!("{removed} must fail to decode with a JSON error, got {other:?}"),
        }
    }
}

#[test]
fn pre_0_12_batch_reports_with_co_optimized_keys_still_decode() {
    // 0.11 reports carried a co-optimized guard band on every run and a
    // count in the aggregate; unknown fields are skipped, so they decode.
    let device = SyntheticDevice::new(4, 1.8, 0.9);
    let report = PipelineBatch::new()
        .device(&device)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("tiny batch runs");
    let encoded = envelope::encode(&report).expect("encodes");
    let legacy = encoded
        .replacen(r#""guard_band":{"#, r#""guard_band":{"co_optimized":false,"#, 1)
        .replacen(r#""screening":{"#, r#""co_optimized_guard_band":null,"screening":{"#, 1)
        .replacen(
            r#"}},"population_cache_hits""#,
            r#"},"co_optimized_bands":0},"population_cache_hits""#,
            1,
        );
    for key in ["co_optimized", "co_optimized_guard_band", "co_optimized_bands"] {
        assert!(legacy.contains(&format!(r#""{key}":"#)), "the legacy report must carry {key}");
    }
    let decoded: BatchReport = envelope::decode(&legacy).expect("0.11 report decodes");
    assert_eq!(envelope::encode(&decoded).expect("re-encodes"), encoded);
}

#[test]
fn batch_report_round_trips_byte_for_byte() {
    let alpha = SyntheticDevice::new(4, 1.8, 0.9);
    let beta = SyntheticDevice::new(3, 1.5, 0.7);
    let report = PipelineBatch::new()
        .device(&alpha)
        .device(&beta)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .search(CostAwareGreedy)
        .run()
        .expect("tiny batch runs");
    let back = json_round_trip(&report);
    assert_eq!(back.summary(), report.summary());
    assert_eq!(back.search_strategy(), "cost-aware-greedy");
}

#[test]
fn enveloped_report_round_trips() {
    let report = tiny_report();
    let encoded = envelope::encode(&report).expect("encodes");
    let decoded: PipelineReport = envelope::decode(&encoded).expect("decodes");
    let encoded_again = envelope::encode(&decoded).expect("re-encodes");
    assert_eq!(encoded, encoded_again);
}

#[test]
fn measured_job_spec_round_trips() {
    let specs = SpecificationSet::new(vec![
        Specification::new("gain", "dB", 0.0, -1.0, 1.0).unwrap(),
        Specification::new("offset", "mV", 0.0, -2.0, 2.0).unwrap(),
    ])
    .unwrap();
    let rows = vec![vec![0.1, -0.4], vec![0.9, 1.8], vec![-0.7, 0.2], vec![2.0, 0.0]];
    let population = MeasurementSet::new(specs, rows).unwrap();
    let (train, test) = population.split_at(2);
    let spec = JobSpec::new(
        vec![DeviceSpec::Measured { label: "lot-7".into(), train, test }],
        MonteCarloConfig::new(1),
        CompactionConfig::paper_default(),
    );
    let back = json_round_trip(&spec);
    assert_eq!(back, spec);
}

#[test]
fn non_finite_floats_never_reach_the_wire() {
    let snapshot = FrontierSnapshot { eliminated: vec![1], prediction_error: Some(f64::NAN) };
    assert!(stc_serve::json::to_string(&snapshot).is_err());
    let infinite = FrontierSnapshot { eliminated: vec![2], prediction_error: Some(f64::INFINITY) };
    assert!(stc_serve::json::to_string(&infinite).is_err());
}

#[test]
fn invalid_cost_models_are_rejected_on_parse() {
    // A syntactically valid document whose payload violates the cost-model
    // invariants (negative cost) must fail through the validating
    // deserializer, not produce a corrupt model.
    let json = r#"{"per_test":[-1.0,2.0],"insertion_of_test":[0,0],"insertion_cost":[5.0]}"#;
    assert!(stc_serve::json::from_str::<TestCostModel>(json).is_err());
}

#[test]
fn unknown_schema_versions_are_rejected_with_a_typed_error() {
    let report = tiny_report();
    let encoded = envelope::encode(&report).expect("encodes");
    let bumped = encoded.replacen(r#""schema_version":1"#, r#""schema_version":2"#, 1);
    assert_ne!(encoded, bumped, "version literal must be present to bump");
    match envelope::decode::<PipelineReport>(&bumped) {
        Err(ServeError::UnsupportedSchemaVersion { found: 2, supported: 1 }) => {}
        other => panic!("expected UnsupportedSchemaVersion, got {other:?}"),
    }
}
