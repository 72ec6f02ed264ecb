//! Wire-format round-trip properties: every serialized type must survive
//! `value -> JSON -> value` (equality for `PartialEq` types) and
//! `JSON -> value -> JSON` (byte-for-byte reserialization for reports).

use proptest::prelude::*;
use stc_core::pipeline::CompactionPipeline;
use stc_core::search::FrontierSnapshot;
use stc_core::{
    AnnealingSchedule, BatchReport, CompactionConfig, EliminationOrder, GuardBandConfig,
    MeasurementSet, MonteCarloConfig, PipelineBatch, PipelineReport, Prediction, SearchStrategy,
    Specification, SpecificationSet, SyntheticDevice, TestCostModel, TesterProgram,
};
use stc_serve::{envelope, ClassifierSpec, CompactionService, DeviceSpec, JobSpec, ServeError};

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
        q_low in 0.0f64..0.2,
        q_high in 0.8f64..1.0,
    ) {
        let config = MonteCarloConfig::new(instances)
            .with_seed(seed)
            .with_threads(threads)
            .with_calibration_quantiles(q_low, q_high);
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
    ) {
        let mut config = CompactionConfig::paper_default()
            .with_tolerance(tolerance)
            .with_order(order_from(order_choice, order_seed, functional))
            .with_threads(threads)
            .with_warm_start(warm == 1)
            .with_guard_band(GuardBandConfig::paper_default().with_guard_band(band).unwrap());
        if max_eliminated > 0 {
            config = config.with_max_eliminated(max_eliminated);
        }
        prop_assert_eq!(json_round_trip(&config), config);
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
    fn job_spec_round_trips(
        instances in 20usize..400,
        seed in 0u64..1_000_000,
        tolerance in 0.01f64..0.3,
        strategy_choice in 0usize..3,
        classifier_choice in 0usize..2,
        shard_threads in 0usize..4,
    ) {
        let strategy = match strategy_choice {
            0 => SearchStrategy::Greedy,
            1 => SearchStrategy::CostAware,
            _ => SearchStrategy::Annealing { seed, schedule: Default::default() },
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
        spec.shard_threads = shard_threads;
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
    // Specs written before 0.9 carry no `sequential` key, and neither do
    // specs written since 0.22, which dropped the opt-out.  Specs written
    // by 0.9 to 0.21 carry one, possibly `false`: it is skipped, and the
    // job reports its sequential statistics like any other.
    let spec = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(50).with_seed(5),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = stc_serve::json::to_string(&spec).expect("serializes");
    assert!(!json.contains("sequential"), "{json}");
    let back: JobSpec = stc_serve::json::from_str(&json).expect("spec parses");
    assert_eq!(back, spec);
    for value in ["null", "false", "true"] {
        let legacy = json.replacen(
            r#""shard_threads":"#,
            &format!(r#""sequential":{value},"shard_threads":"#),
            1,
        );
        assert_ne!(json, legacy, "the shard_threads field must be present to prefix");
        let back: JobSpec = stc_serve::json::from_str(&legacy).expect("legacy spec parses");
        assert_eq!(back, spec);
    }
}

/// The checked-in job fixture was written when `GuardBandConfig` still
/// carried `svm_c`/`svm_gamma`, which no classifier ever read, and the
/// kept-range flag, when a spec still carried search budgets (all
/// unlimited in the fixture) and when `MonteCarloConfig` still carried
/// `skip_failures`.  It decodes to the spec without them: re-encoding
/// yields the fixture minus exactly those keys.
#[test]
fn the_job_fixture_decodes_without_its_svm_hints() {
    let fixture = include_str!("../../bench/fixtures/jobspec_synthetic.json").trim_end();
    let legacy = [
        r#","skip_failures":true"#,
        r#","svm_c":10,"svm_gamma":1,"enforce_kept_ranges":true"#,
        r#","budget":{"max_trainings":null,"max_solver_iterations":null,"deadline":null}"#,
        r#","budget":null"#,
    ];
    let mut expected = fixture.to_string();
    for keys in legacy {
        assert!(fixture.contains(keys), "the fixture must carry {keys}: {fixture}");
        expected = expected.replacen(keys, "", 1);
    }
    let spec: JobSpec = envelope::decode(fixture).expect("the fixture decodes");
    assert_eq!(spec.compaction.guard_band, GuardBandConfig::paper_default());
    assert_eq!(envelope::encode(&spec).expect("encodes"), expected);
}

/// Specs written before 0.25 could carry a search budget at the top level
/// and inside `compaction`, and could turn the kept-range check off.  The
/// budget and the flag are gone and their keys are skipped: such a spec
/// decodes to the spec without them and runs the full search with every
/// kept range checked, even where its budget would have stopped the search
/// after one training.
#[test]
fn pre_0_25_job_specs_carrying_budgets_run_the_full_search() {
    let spec = JobSpec::new(
        vec![DeviceSpec::Synthetic { specs: 4, limit: 1.8, correlation: 0.9 }],
        MonteCarloConfig::new(120).with_seed(42),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = envelope::encode(&spec).expect("encodes");
    assert!(!json.contains("budget"), "{json}");
    let budget =
        r#"{"max_trainings":1,"max_solver_iterations":null,"deadline":{"secs":0,"nanos":0}}"#;
    let legacy = json
        .replacen(r#""warm_start":true}"#, &format!(r#""warm_start":true,"budget":{budget}}}"#), 1)
        .replacen(r#""cost_model":"#, &format!(r#""budget":{budget},"cost_model":"#), 1)
        .replacen(
            r#""guard_band_fraction":0.05}"#,
            r#""guard_band_fraction":0.05,"enforce_kept_ranges":false}"#,
            1,
        );
    assert_eq!(legacy.matches(budget).count(), 2, "{legacy}");
    assert!(legacy.contains(r#""enforce_kept_ranges":false"#), "{legacy}");
    let decoded: JobSpec = envelope::decode(&legacy).expect("the legacy spec decodes");
    assert_eq!(decoded, spec);
    let service = CompactionService::new(1);
    let report = service.run_blocking(spec).expect("the spec runs");
    let legacy_report = service.run_blocking(decoded).expect("the legacy spec runs");
    assert!(report.runs[0].report.compaction.cache.misses > 1, "{:?}", report.runs[0].report);
    assert_eq!(
        envelope::encode(&legacy_report).expect("encodes"),
        envelope::encode(&report).expect("encodes")
    );
}

/// A spec as 0.25 wrote it for each strategy, when stc-serve still kept
/// its own copy of the strategy list.  The list is `SearchStrategy` now
/// and encodes the same way: each document decodes to the spec built with
/// the enum and re-encodes to its own bytes, less the `skip_failures` key
/// that `MonteCarloConfig` no longer has.  An annealing strategy written
/// without a schedule runs the default one.
#[test]
fn job_specs_written_by_0_25_decode_to_the_same_strategies() {
    let written = [
        r#"{"schema_version":1,"payload":{"devices":[{"Synthetic":{"specs":4,"limit":1.8,"correlation":0.9}}],"monte_carlo":{"instances":120,"seed":42,"threads":1,"skip_failures":true,"calibration_quantiles":[0.015,0.985]},"test_instances":null,"compaction":{"error_tolerance":0.1,"order":"ByClassificationPower","guard_band":{"guard_band_fraction":0.05},"max_eliminated":null,"threads":1,"warm_start":true},"strategy":"Greedy","classifier":"Grid","guard_band":null,"cost_model":null,"lookup_table":null,"shard_threads":0}}"#,
        r#"{"schema_version":1,"payload":{"devices":[{"Synthetic":{"specs":4,"limit":1.8,"correlation":0.9}}],"monte_carlo":{"instances":120,"seed":42,"threads":1,"skip_failures":true,"calibration_quantiles":[0.015,0.985]},"test_instances":null,"compaction":{"error_tolerance":0.1,"order":"ByClassificationPower","guard_band":{"guard_band_fraction":0.05},"max_eliminated":null,"threads":1,"warm_start":true},"strategy":"CostAware","classifier":"Grid","guard_band":null,"cost_model":null,"lookup_table":null,"shard_threads":0}}"#,
        r#"{"schema_version":1,"payload":{"devices":[{"Synthetic":{"specs":4,"limit":1.8,"correlation":0.9}}],"monte_carlo":{"instances":120,"seed":42,"threads":1,"skip_failures":true,"calibration_quantiles":[0.015,0.985]},"test_instances":null,"compaction":{"error_tolerance":0.1,"order":"ByClassificationPower","guard_band":{"guard_band_fraction":0.05},"max_eliminated":null,"threads":1,"warm_start":true},"strategy":{"Annealing":{"seed":7,"schedule":{"initial_temperature":0.5,"cooling":0.9,"steps":40}}},"classifier":"Grid","guard_band":null,"cost_model":null,"lookup_table":null,"shard_threads":0}}"#,
    ];
    let schedule = AnnealingSchedule { initial_temperature: 0.5, cooling: 0.9, steps: 40 };
    let strategies = [
        SearchStrategy::Greedy,
        SearchStrategy::CostAware,
        SearchStrategy::Annealing { seed: 7, schedule },
    ];
    for (document, strategy) in written.iter().zip(strategies) {
        let mut spec = JobSpec::new(
            vec![DeviceSpec::Synthetic { specs: 4, limit: 1.8, correlation: 0.9 }],
            MonteCarloConfig::new(120).with_seed(42),
            CompactionConfig::paper_default().with_tolerance(0.1),
        );
        spec.strategy = strategy;
        let decoded: JobSpec = envelope::decode(document).expect("the 0.25 spec decodes");
        assert_eq!(decoded, spec);
        let skipped = r#","skip_failures":true"#;
        assert!(document.contains(skipped), "{document}");
        assert_eq!(envelope::encode(&decoded).expect("encodes"), document.replacen(skipped, "", 1));
    }
    let scheduled = r#""seed":7,"schedule":{"initial_temperature":0.5,"cooling":0.9,"steps":40}"#;
    assert!(written[2].contains(scheduled), "{}", written[2]);
    let unscheduled = written[2].replacen(scheduled, r#""seed":7"#, 1);
    let decoded: JobSpec = envelope::decode(&unscheduled).expect("decodes without a schedule");
    assert_eq!(
        decoded.strategy,
        SearchStrategy::Annealing { seed: 7, schedule: AnnealingSchedule::default() }
    );
}

/// `MonteCarloConfig` has no `skip_failures` since 0.26: a failed
/// simulation is always skipped and replaced from the seed list.  A spec
/// written with `"skip_failures":false` decodes to the spec without the key
/// and runs to the same report.
#[test]
fn specs_with_fatal_simulation_failures_run_to_the_same_report() {
    let spec = JobSpec::new(
        vec![DeviceSpec::Synthetic { specs: 4, limit: 1.8, correlation: 0.9 }],
        MonteCarloConfig::new(120).with_seed(42),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = envelope::encode(&spec).expect("encodes");
    assert!(!json.contains("skip_failures"), "{json}");
    let legacy = json.replacen(
        r#""threads":1,"calibration_quantiles":"#,
        r#""threads":1,"skip_failures":false,"calibration_quantiles":"#,
        1,
    );
    assert!(legacy.contains(r#""skip_failures":false"#), "{legacy}");
    let decoded: JobSpec = envelope::decode(&legacy).expect("the legacy spec decodes");
    assert_eq!(decoded, spec);
    let service = CompactionService::new(1);
    let report = service.run_blocking(spec).expect("the spec runs");
    let legacy_report = service.run_blocking(decoded).expect("the legacy spec runs");
    assert_eq!(
        envelope::encode(&legacy_report).expect("encodes"),
        envelope::encode(&report).expect("encodes")
    );
}

/// A decoded specification passes the checks `Specification::new` and
/// `SpecificationSet::new` make.  A tester program with a reversed range
/// used to decode and then reject the nominal device.
#[test]
fn specifications_are_checked_on_decode() {
    let specs = SpecificationSet::new(vec![
        Specification::new("gain", "dB", 60.0, 55.0, 65.0).unwrap(),
        Specification::new("offset", "mV", 0.0, -5.0, 5.0).unwrap(),
    ])
    .unwrap();
    let program = TesterProgram::complete(specs);
    let back = json_round_trip(&program);
    assert_eq!(back.specs(), program.specs());
    let json = stc_serve::json::to_string(&program).unwrap();
    let edits = [
        (r#""lower":55,"upper":65"#, r#""lower":65,"upper":55"#),
        (r#""lower":55,"upper":65"#, r#""lower":60,"upper":60"#),
        (r#""name":"offset""#, r#""name":"""#),
        (r#""name":"offset""#, r#""name":"gain""#),
    ];
    for (from, to) in edits {
        assert!(json.contains(from), "{from} must be present to replace: {json}");
        let document = json.replace(from, to);
        let decoded = stc_serve::json::from_str::<TesterProgram>(&document);
        assert!(decoded.is_err(), "{document} must not decode: {decoded:?}");
    }
    let empty = stc_serve::json::from_str::<SpecificationSet>(r#"{"specs":[]}"#);
    assert!(empty.is_err(), "an empty set must not decode: {empty:?}");
    // A measured population decodes its specifications the same way.
    let population = MeasurementSet::new(program.specs().clone(), vec![vec![60.0, 0.0]]).unwrap();
    let json = stc_serve::json::to_string(&population).unwrap();
    let reversed = json.replace(r#""lower":55,"upper":65"#, r#""lower":65,"upper":55"#);
    assert_ne!(reversed, json, "the range must be present to reverse");
    let decoded = stc_serve::json::from_str::<MeasurementSet>(&reversed);
    assert!(decoded.is_err(), "{reversed} must not decode: {decoded:?}");

    let snapshot = include_str!("../../bench/snapshots/BENCH_pipeline.json").trim_end();
    let report: BatchReport = envelope::decode(snapshot).expect("the snapshot decodes");
    assert_eq!(envelope::encode(&report).expect("encodes"), snapshot);
}

#[test]
fn pre_0_10_job_specs_still_parse() {
    // Specs written before 0.10 carry no `screening` keys.  Specs written
    // by 0.10 to 0.18 carry one at the top level and one inside
    // `compaction`, possibly enabled.  The screen is gone, so both keys
    // are skipped: the job decodes to the spec without them and runs the
    // exact search, which is what the screen promised to match.
    let spec = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(50).with_seed(5),
        CompactionConfig::paper_default().with_tolerance(0.1),
    );
    let json = stc_serve::json::to_string(&spec).expect("serializes");
    assert!(!json.contains("screening"), "{json}");
    let screen = r#"{"enabled":true,"landmarks":24,"shortlist":3}"#;
    let legacy = json
        .replacen(r#"},"strategy":"#, &format!(r#","screening":{screen}}},"strategy":"#), 1)
        .replacen(r#""cost_model":"#, &format!(r#""screening":{screen},"cost_model":"#), 1);
    assert_eq!(legacy.matches(screen).count(), 2, "{legacy}");
    for text in [&json, &legacy] {
        let back: JobSpec = stc_serve::json::from_str(text).expect("legacy spec parses");
        assert_eq!(back, spec);
    }
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
    const SCREEN: &str = r#""screening":{"screened":0,"verified":0,"agreed":0,"batches":0}"#;
    // 0.11 reports carried a co-optimized guard band on every run and a
    // count in the aggregate, and 0.10 to 0.18 reports carried screen
    // counters in both; unknown fields are skipped, so they decode.
    let device = SyntheticDevice::new(4, 1.8, 0.9);
    let report = PipelineBatch::new()
        .device(&device)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("tiny batch runs");
    let encoded = envelope::encode(&report).expect("encodes");
    // The end of the first run's compaction result, after its warm-start
    // counters.
    let compaction_end = r#"}},"deployed":"#;
    assert!(encoded.contains(compaction_end), "{encoded}");
    let mut legacy = encoded
        .replacen(r#""guard_band":{"#, r#""guard_band":{"co_optimized":false,"#, 1)
        .replacen(
            compaction_end,
            &format!(r#"}},"co_optimized_guard_band":null,{SCREEN}}},"deployed":"#),
            1,
        );
    // The aggregate is the payload's last field: after its warm-start
    // counters, its closing brace is the third from the end.
    assert!(legacy.ends_with(r#""ignored_banks":0}}}}}"#), "{legacy}");
    legacy.insert_str(legacy.len() - 3, &format!(r#","co_optimized_bands":0,{SCREEN}"#));
    assert_eq!(legacy.matches(SCREEN).count(), 2, "{legacy}");
    for key in ["co_optimized", "co_optimized_guard_band", "co_optimized_bands"] {
        assert!(legacy.contains(&format!(r#""{key}":"#)), "the legacy report must carry {key}");
    }
    let decoded: BatchReport = envelope::decode(&legacy).expect("legacy report decodes");
    assert_eq!(envelope::encode(&decoded).expect("re-encodes"), encoded);
}

/// Reports written before 0.25 carried the search-budget counters of each
/// run at the end of its compaction result.  They are skipped: such a
/// report decodes and re-encodes without them, whatever they say.
#[test]
fn pre_0_25_batch_reports_carrying_budget_stats_still_decode() {
    let alpha = SyntheticDevice::new(4, 1.8, 0.9);
    let beta = SyntheticDevice::new(3, 1.5, 0.7);
    let report = PipelineBatch::new()
        .device(&alpha)
        .device(&beta)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("tiny batch runs");
    let encoded = envelope::encode(&report).expect("encodes");
    assert!(!encoded.contains("budget"), "{encoded}");
    let compaction_end = r#"}},"deployed":"#;
    assert_eq!(encoded.matches(compaction_end).count(), 2, "{encoded}");
    let budgets = [
        r#""budget":{"trainings":3,"solver_iterations":0,"exhausted":false,"provenance":"Completed"}"#,
        r#""budget":{"trainings":1,"solver_iterations":7,"exhausted":true,"provenance":"Truncated"}"#,
    ];
    // Each run's counters go after its warm-start counters.
    let mut runs = encoded.split(compaction_end);
    let mut legacy = runs.next().expect("text before the first run's end").to_string();
    for (rest, budget) in runs.zip(budgets) {
        legacy += &format!(r#"}},{budget}}},"deployed":"#);
        legacy += rest;
    }
    for budget in budgets {
        assert!(legacy.contains(budget), "{legacy}");
    }
    let decoded: BatchReport = envelope::decode(&legacy).expect("legacy report decodes");
    assert_eq!(envelope::encode(&decoded).expect("re-encodes"), encoded);
}

/// Reports written before 0.28 carried the batch's population-cache
/// counters after its aggregate.  They are skipped: such a report decodes
/// and re-encodes without them, whatever they say.
#[test]
fn pre_0_28_batch_reports_with_population_cache_counters_still_decode() {
    let alpha = SyntheticDevice::new(4, 1.8, 0.9);
    let beta = SyntheticDevice::new(3, 1.5, 0.7);
    let report = PipelineBatch::new()
        .device(&alpha)
        .device(&beta)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("tiny batch runs");
    let encoded = envelope::encode(&report).expect("encodes");
    assert!(!encoded.contains("population_cache"), "{encoded}");
    // The counters followed the aggregate, the payload's last field, so
    // they go before the payload's closing brace, the second from the end.
    assert!(encoded.ends_with(r#""ignored_banks":0}}}}}"#), "{encoded}");
    let counters = r#","population_cache_hits":3,"population_cache_misses":2"#;
    let mut legacy = encoded.clone();
    legacy.insert_str(legacy.len() - 2, counters);
    assert!(legacy.ends_with(&format!("}}}}}}{counters}}}}}")), "{legacy}");
    let decoded: BatchReport = envelope::decode(&legacy).expect("legacy report decodes");
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
        .search(SearchStrategy::CostAware)
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

/// A tester program whose kept set cannot be classified (empty, out of
/// range, duplicated, or not the model's own) is a decode error: decoded,
/// the first two used to panic in `classify` and the third checked one
/// specification twice and passed a device that fails the other.
#[test]
fn tester_programs_with_unclassifiable_kept_sets_are_rejected() {
    let specs = SpecificationSet::new(vec![
        Specification::new("gain", "dB", 60.0, 55.0, 65.0).unwrap(),
        Specification::new("offset", "mV", 0.0, -5.0, 5.0).unwrap(),
    ])
    .unwrap();
    let program = TesterProgram::complete(specs);
    let json = stc_serve::json::to_string(&program).expect("serializes");
    let back: TesterProgram = json_round_trip(&program);
    assert_eq!(back.classify(&[60.0, 60.0]).unwrap(), Prediction::Bad);

    let kept = r#""kept":[0,1]"#;
    assert!(json.contains(kept), "the kept literal must be present to replace: {json}");
    for bad in [r#""kept":[]"#, r#""kept":[0,7]"#, r#""kept":[0,0]"#, r#""kept":[1,0]"#] {
        let document = json.replacen(kept, bad, 1);
        let decoded = stc_serve::json::from_str::<TesterProgram>(&document);
        assert!(decoded.is_err(), "{bad} must not decode: {decoded:?}");
    }

    // A detached exact model must cover the program's kept set.
    let detached = json.replacen(
        r#""model":"CompleteSuite""#,
        r#""model":{"Detached":{"backend":"svm","kept":[1]}}"#,
        1,
    );
    assert_ne!(detached, json, "the model literal must be present to replace");
    assert!(stc_serve::json::from_str::<TesterProgram>(&detached).is_err());
    let matching = detached.replacen(kept, r#""kept":[1]"#, 1);
    let program: TesterProgram = stc_serve::json::from_str(&matching).expect("consistent program");
    assert_eq!(stc_serve::json::to_string(&program).unwrap(), matching);
}

/// A lookup-table tester must be able to classify what it decodes: it keeps
/// a specification, has at least two cells per dimension and one attribute
/// per cell, and spans a finite, non-empty range.  A table cut to one of its
/// four attributes used to decode and then panic with an index out of
/// bounds in `classify`.
#[test]
fn lookup_tables_that_cannot_classify_are_rejected() {
    let device = SyntheticDevice::new(2, 1.8, 0.9);
    let report = CompactionPipeline::for_device(&device)
        .monte_carlo(MonteCarloConfig::new(80).with_seed(3))
        .lookup_table(4)
        .run()
        .expect("tiny pipeline runs");
    assert_eq!(report.kept(), &[1]);
    let json = stc_serve::json::to_string(&report.tester).expect("serializes");
    let back: TesterProgram = json_round_trip(&report.tester);
    for value in [-2.0, -0.5, 0.0, 0.5, 2.0] {
        assert_eq!(back.classify(&[value]).unwrap(), report.tester.classify(&[value]).unwrap());
    }

    let model = &json[json.find(r#""LookupTable":"#).expect("a lookup-table model")..];
    let attributes = &model[model.find(r#""attributes":["#).expect("attributes")..];
    let attributes = &attributes[..=attributes.find(']').expect("the list closes")];
    assert_eq!(attributes.matches(',').count(), 3, "four attributes: {attributes}");
    let one_attribute = format!("{}]", &attributes[..attributes.find(',').unwrap()]);
    let edits = [
        (attributes, one_attribute.as_str()),
        (r#""cells_per_dim":4"#, r#""cells_per_dim":1"#),
        (r#""lower":-0.25"#, r#""lower":1.25"#),
        (r#""lower":-0.25"#, r#""lower":2"#),
        (r#""kept":[1]"#, r#""kept":[]"#),
    ];
    for (from, to) in edits {
        assert!(json.contains(from), "{from} must be present to replace: {json}");
        let document = json.replace(from, to);
        let decoded = stc_serve::json::from_str::<TesterProgram>(&document);
        assert!(decoded.is_err(), "{document} must not decode: {decoded:?}");
    }
}

/// An `Svc` document names the RBF kernel, and the `bias_shift` that
/// documents written before 0.22 carry must be zero: a document with a
/// kernel family or a bias shift the crate no longer has is a decode error,
/// never a different model.
#[test]
fn svc_documents_with_removed_kernels_or_a_bias_shift_are_rejected() {
    use stc_svm::{Dataset, Kernel, Svc, SvcParams};

    let mut data = Dataset::new(2).unwrap();
    for i in 0..12 {
        let x = i as f64 / 12.0;
        data.push(vec![x, x + 0.4], 1.0).unwrap();
        data.push(vec![x, x - 0.4], -1.0).unwrap();
    }
    let model = Svc::train(&data, &SvcParams::new().with_c(5.0).with_kernel(Kernel::rbf(0.5)))
        .expect("trains");
    assert_eq!(json_round_trip(&model), model);
    let json = stc_serve::json::to_string(&model).unwrap();
    let rbf = r#""kernel":{"Rbf":{"gamma":0.5}}"#;
    let iterations = r#""iterations":"#;
    // Documents written before 0.22 carry a zero `bias_shift`.
    let unshifted = json.replacen(iterations, r#""bias_shift":0,"iterations":"#, 1);
    assert_eq!(stc_serve::json::from_str::<Svc>(&unshifted).expect("decodes"), model);
    let edits = [
        (rbf, r#""kernel":"Linear""#),
        (rbf, r#""kernel":{"Polynomial":{"gamma":0.5,"coef0":1,"degree":2}}"#),
        (rbf, r#""kernel":{"Sigmoid":{"gamma":0.5,"coef0":0}}"#),
        (iterations, r#""bias_shift":0.25,"iterations":"#),
        (iterations, r#""bias_shift":-1e-300,"iterations":"#),
    ];
    for (from, to) in edits {
        assert!(json.contains(from), "{from} must be present to replace: {json}");
        let document = json.replace(from, to);
        let decoded = stc_serve::json::from_str::<Svc>(&document);
        assert!(decoded.is_err(), "{document} must not decode: {decoded:?}");
    }
}

/// An `Svc` document must hold `dimension` support-lane values and one
/// support index per coefficient: a truncated document used to decode and
/// then panic on its first decision, and a padded one decoded with values
/// no decision read.
#[test]
fn svc_documents_with_mis_sized_support_lanes_are_rejected() {
    use stc_svm::{Dataset, Kernel, Svc, SvcParams};

    let mut data = Dataset::new(2).unwrap();
    for i in 0..12 {
        let x = i as f64 / 12.0;
        data.push(vec![x, x + 0.4], 1.0).unwrap();
        data.push(vec![x, x - 0.4], -1.0).unwrap();
    }
    let model = Svc::train(&data, &SvcParams::new().with_c(5.0).with_kernel(Kernel::rbf(0.5)))
        .expect("trains");
    let back = json_round_trip(&model);
    assert_eq!(back, model);

    let json = stc_serve::json::to_string(&model).unwrap();
    let replace_list = |field: &str, edit: &dyn Fn(&mut Vec<&str>)| {
        let key = format!("\"{field}\":[");
        let start = json.find(&key).expect("field present") + key.len();
        let end = start + json[start..].find(']').expect("list closes");
        let mut items: Vec<&str> = json[start..end].split(',').collect();
        edit(&mut items);
        format!("{}{}{}", &json[..start], items.join(","), &json[end..])
    };
    let unchanged = replace_list("support_lanes", &|_| {});
    assert_eq!(unchanged, json, "the list edit must reproduce the document");
    for document in [
        replace_list("support_lanes", &|items| {
            items.pop();
        }),
        replace_list("support_lanes", &|items| items.push("0.5")),
        replace_list("support_indices", &|items| {
            items.pop();
        }),
    ] {
        let decoded = stc_serve::json::from_str::<Svc>(&document);
        assert!(decoded.is_err(), "{document} must not decode: {decoded:?}");
    }
}
