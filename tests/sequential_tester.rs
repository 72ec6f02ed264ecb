//! Sequential-deploy equivalence and expected-cost properties:
//!
//! * driving a deployed tester program through a staged `SequentialSession`
//!   reaches exactly the one-shot `classify` verdict — for every bundled
//!   fixture (synthetic, op-amp, MEMS accelerometer), every `TesterModel`
//!   variant (complete suite, exact model, lookup table) and *any* stage
//!   order (the early-exit rules are order-independent),
//! * under a uniform cost model the expected sequential cost per device
//!   never exceeds the static kept-set cost,
//! * on the op-amp fixture with a non-uniform cost model the cheapest-first
//!   plan prices strictly below the static kept set.

use std::sync::OnceLock;

use proptest::prelude::*;
use spec_test_compaction::prelude::*;

/// Deterministic splitmix64 step (no RNG dependency in this test).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher-Yates permutation of the kept columns, seeded deterministically.
fn shuffled(kept: &[usize], seed: u64) -> Vec<usize> {
    let mut order = kept.to_vec();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Runs one device through a staged session and returns the final verdict.
fn drive(
    program: &TesterProgram,
    order: &[usize],
    data: &MeasurementSet,
    row: usize,
) -> Prediction {
    let plan = TestPlan::with_stages(program, order.to_vec()).expect("valid stage order");
    let mut session = plan.begin();
    loop {
        let column = session.next_stage().expect("undecided session names its next stage");
        match session.measure(data.value(row, column)).expect("session accepts the measurement") {
            StepVerdict::Decided(verdict) => return verdict,
            StepVerdict::NeedMore { .. } => {}
        }
    }
}

/// The one-shot verdict from a full kept-set measurement vector.
fn one_shot(program: &TesterProgram, data: &MeasurementSet, row: usize) -> Prediction {
    let kept: Vec<f64> = program.kept().iter().map(|&c| data.value(row, c)).collect();
    program.classify(&kept).expect("deployed program classifies")
}

struct Fixture {
    name: &'static str,
    program: TesterProgram,
    test: MeasurementSet,
}

fn fixture(
    name: &'static str,
    device: &dyn DeviceUnderTest,
    seed: u64,
    tolerance: f64,
    svm: bool,
    lookup: Option<usize>,
) -> Fixture {
    let monte_carlo = MonteCarloConfig::new(200).with_seed(seed);
    let (train, test) = generate_train_test(device, &monte_carlo, 100).expect("population");
    let mut pipeline = CompactionPipeline::for_device(device)
        .monte_carlo(monte_carlo)
        .compaction(CompactionConfig::paper_default().with_tolerance(tolerance));
    if svm {
        pipeline = pipeline.classifier(SvmBackend::paper_default());
    }
    if let Some(cells) = lookup {
        pipeline = pipeline.lookup_table(cells);
    }
    let report = pipeline.run_with_population(train, test.clone()).expect("fixture pipeline runs");
    Fixture { name, program: report.tester, test }
}

/// Every fixture/model-variant combination under test, built once.
fn fixtures() -> &'static Vec<Fixture> {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let synthetic = SyntheticDevice::new(5, 1.8, 0.9);
        let opamp = OpAmpDevice::paper_setup();
        let mems = AccelerometerDevice::paper_setup();
        // A complete-suite program, constructed directly: every test kept.
        let monte_carlo = MonteCarloConfig::new(200).with_seed(11);
        let (_, complete_test) =
            generate_train_test(&synthetic, &monte_carlo, 100).expect("population");
        let complete = Fixture {
            name: "synthetic/complete",
            program: TesterProgram::complete(complete_test.specs().clone()),
            test: complete_test,
        };
        let all = vec![
            complete,
            fixture("synthetic/grid", &synthetic, 11, 0.05, false, None),
            fixture("synthetic/lookup", &synthetic, 11, 0.05, false, Some(16)),
            fixture("opamp/svm", &opamp, 7, 0.05, true, None),
            fixture("mems/grid", &mems, 13, 0.05, false, None),
        ];
        assert!(
            all.iter().any(|f| matches!(f.program.model(), TesterModel::CompleteSuite)),
            "fixtures must cover the complete-suite variant"
        );
        assert!(
            all.iter().any(|f| matches!(f.program.model(), TesterModel::Exact(_))),
            "fixtures must cover the exact-model variant"
        );
        assert!(
            all.iter().any(|f| matches!(f.program.model(), TesterModel::LookupTable(_))),
            "fixtures must cover the lookup-table variant"
        );
        all
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The staged session decides exactly what the one-shot classifier
    /// decides, whatever order the stages run in.
    #[test]
    fn sequential_matches_one_shot_for_any_stage_order(order_seed in 0u64..u64::MAX) {
        for fixture in fixtures() {
            let order = shuffled(fixture.program.kept(), order_seed);
            for row in 0..fixture.test.len() {
                let expected = one_shot(&fixture.program, &fixture.test, row);
                let sequential = drive(&fixture.program, &order, &fixture.test, row);
                prop_assert!(
                    sequential == expected,
                    "fixture {} row {}: sequential {:?} != one-shot {:?} (order {:?})",
                    fixture.name, row, sequential, expected, order
                );
            }
        }
    }
}

#[test]
fn expected_cost_never_exceeds_static_cost_under_uniform_model() {
    for fixture in fixtures() {
        if fixture.program.kept().is_empty() {
            continue;
        }
        let cost_model = TestCostModel::uniform(fixture.test.specs().len());
        let plan = TestPlan::cheapest_first(&fixture.program, &cost_model).unwrap();
        let stats = SequentialStats::collect(&plan, &cost_model, &fixture.test).unwrap();
        assert_eq!(stats.devices, fixture.test.len());
        assert!(
            stats.expected_cost <= stats.static_cost + 1e-12,
            "fixture {}: expected {} > static {}",
            fixture.name,
            stats.expected_cost,
            stats.static_cost
        );
        assert_eq!(cost_model.expected_cost(&plan, &fixture.test).unwrap(), stats.expected_cost);
    }
}

#[test]
fn opamp_sequential_deploy_prices_below_the_static_kept_set() {
    // Acceptance check: on the op-amp fixture, a non-uniform cost model
    // must make the cheapest-first sequential deploy strictly cheaper per
    // device than measuring the whole kept set up front.
    let fixture = fixtures().iter().find(|f| f.name == "opamp/svm").unwrap();
    let tests = fixture.test.specs().len();
    // Rising per-test costs across two insertions: DC-ish tests are cheap,
    // later dynamic tests expensive; the second insertion costs extra to open.
    let per_test: Vec<f64> = (0..tests).map(|i| 1.0 + i as f64).collect();
    let groups: Vec<usize> = (0..tests).map(|i| usize::from(i >= tests / 2)).collect();
    let cost_model = TestCostModel::new(per_test, groups, vec![2.0, 10.0]).unwrap();

    let plan = TestPlan::cheapest_first(&fixture.program, &cost_model).unwrap();
    let stats = SequentialStats::collect(&plan, &cost_model, &fixture.test).unwrap();
    assert!(stats.devices > 0);
    assert!(
        stats.expected_cost < stats.static_cost,
        "expected cost {} must be strictly below the static kept-set cost {} \
         (early exits: {})",
        stats.expected_cost,
        stats.static_cost,
        stats.early_exits
    );
    assert!(stats.early_exits > 0);
    assert!(stats.early_exit_fraction() > 0.0);
}

/// A pipeline scores its deployed tester in the pass that collects the
/// sequential statistics, on
/// `CompactionConfig::threads` workers.  At every thread count the report's
/// breakdown equals `try_evaluate` and its statistics equal
/// `SequentialStats::collect`, for an exact tester on a held-out population
/// with kept-range failures and for a lookup-table tester.
#[test]
fn one_pass_deploy_matches_the_separate_passes_at_any_thread_count() {
    let device = SyntheticDevice::new(5, 1.8, 0.9);
    let monte_carlo = MonteCarloConfig::new(300).with_seed(17);
    // More held-out devices than one deploy chunk, so the pass splits.
    let (train, test) = generate_train_test(&device, &monte_carlo, 700).expect("population");
    let cost_model = TestCostModel::uniform(5);
    for lookup in [None, Some(16)] {
        let mut first = None;
        for threads in 1..=4 {
            let mut pipeline = CompactionPipeline::for_device(&device)
                .monte_carlo(monte_carlo)
                .compaction(
                    CompactionConfig::paper_default().with_tolerance(0.05).with_threads(threads),
                )
                .cost_model(cost_model.clone())
                .classifier(SvmBackend::paper_default());
            if let Some(cells) = lookup {
                pipeline = pipeline.lookup_table(cells);
            }
            let report = pipeline.run_with_population(train.clone(), test.clone()).unwrap();
            let program = &report.tester;
            match lookup {
                None => assert!(matches!(program.model(), TesterModel::Exact(_))),
                Some(_) => assert!(matches!(program.model(), TesterModel::LookupTable(_))),
            }
            let fails_kept_range = |i: usize| {
                program.kept().iter().any(|&c| !test.specs().spec(c).passes(test.value(i, c)))
            };
            assert!((0..test.len()).any(fails_kept_range), "no held-out device fails a kept range");
            assert_eq!(report.deployed, program.try_evaluate(&test).unwrap(), "threads {threads}");
            let plan = TestPlan::cheapest_first(program, &cost_model).unwrap();
            let stats = SequentialStats::collect(&plan, &cost_model, &test).unwrap();
            assert_eq!(report.sequential.as_ref(), Some(&stats), "threads {threads}");
            let outcome = (report.deployed, stats);
            match &first {
                None => first = Some(outcome),
                Some(first) => assert_eq!(first, &outcome, "threads {threads}"),
            }
        }
    }
}
