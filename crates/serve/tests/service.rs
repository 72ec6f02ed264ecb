//! Service-level behaviour: shard/direct parity, cancellation semantics
//! and streaming progress.

use stc_core::montecarlo::generate_train_test;
use stc_core::{
    CompactionConfig, CompactionPipeline, DeviceUnderTest, MonteCarloConfig, PipelineBatch,
    SearchStrategy, SyntheticDevice,
};
use stc_serve::{
    envelope, ClassifierSpec, CompactionService, DeviceSpec, JobSpec, JobStatus, ServeError,
};

fn synthetic_pair_spec() -> JobSpec {
    JobSpec::new(
        vec![
            DeviceSpec::Synthetic { specs: 4, limit: 1.8, correlation: 0.9 },
            DeviceSpec::Synthetic { specs: 5, limit: 1.5, correlation: 0.8 },
        ],
        MonteCarloConfig::new(120).with_seed(42),
        CompactionConfig::paper_default().with_tolerance(0.1),
    )
}

/// The acceptance gate of the job layer: a sharded service job must produce
/// a report *byte-for-byte identical* (once serialized) to a direct
/// `PipelineBatch::run` over the same devices.
#[test]
fn sharded_job_matches_direct_batch_byte_for_byte() {
    let alpha = SyntheticDevice::new(4, 1.8, 0.9);
    let beta = SyntheticDevice::new(5, 1.5, 0.8);
    let direct = PipelineBatch::new()
        .device(&alpha)
        .device(&beta)
        .monte_carlo(MonteCarloConfig::new(120).with_seed(42))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .run()
        .expect("direct batch runs");

    let mut spec = synthetic_pair_spec();
    spec.shard_threads = 2;
    let service = CompactionService::new(2);
    let report = service.run_blocking(spec).expect("service job runs");

    let direct_json = envelope::encode(&direct).expect("direct encodes");
    let service_json = envelope::encode(&report).expect("service encodes");
    assert_eq!(direct_json, service_json);
}

/// Cancelling a queued job must transition it to `Cancelled` without ever
/// training a model: with a single worker busy on an earlier job, the
/// second submission is still queued when the cancel lands.
#[test]
fn cancelling_a_queued_job_never_trains() {
    let service = CompactionService::new(1);
    let mut slow = synthetic_pair_spec();
    // An SVM-backed job is slow enough that the worker is still on it when
    // the cancel below lands.
    slow.classifier = ClassifierSpec::Svm;
    slow.monte_carlo = MonteCarloConfig::new(200).with_seed(9);
    let running = service.submit(slow).expect("first job queues");

    let queued = service.submit(synthetic_pair_spec()).expect("second job queues");
    assert!(service.cancel(queued).expect("cancel reaches the job"));
    // The job is terminal immediately — no worker ever picked it up.
    assert!(matches!(service.status(queued).expect("status"), JobStatus::Cancelled));

    match service.await_result(queued).expect("await") {
        JobStatus::Cancelled => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // The first job is unaffected by its neighbour's cancellation.
    let first = service.await_result(running).expect("await first");
    assert!(first.report().is_some(), "first job should complete: {first:?}");
    // Cancelling a finished job reports `false`.
    assert!(!service.cancel(running).expect("cancel finished"));
}

/// While a job runs, `status` must expose at least one `Running` snapshot
/// whose best-frontier-so-far is non-empty — the streaming anytime view.
#[test]
fn running_jobs_stream_non_empty_frontiers() {
    let mut spec = synthetic_pair_spec();
    // SVM training makes each shard slow enough to observe mid-flight.
    spec.classifier = ClassifierSpec::Svm;
    spec.monte_carlo = MonteCarloConfig::new(200).with_seed(5);
    let service = CompactionService::new(1);
    let id = service.submit(spec).expect("job queues");

    let mut saw_running_frontier = false;
    let final_report = loop {
        match service.status(id).expect("status") {
            JobStatus::Queued => std::thread::yield_now(),
            JobStatus::Running { progress } => {
                if progress.shards.iter().map(|shard| shard.best_frontier.len()).sum::<usize>() > 0
                {
                    saw_running_frontier = true;
                }
                std::thread::yield_now();
            }
            JobStatus::Done { report } => break report,
            other => panic!("unexpected terminal status {other:?}"),
        }
    };
    assert!(
        saw_running_frontier,
        "never observed a Running snapshot with a non-empty best frontier"
    );
    assert!(final_report.aggregate.total_eliminated > 0);
    // The trainings ticker also streamed.
    match service.status(id).expect("status") {
        JobStatus::Done { report } => {
            assert_eq!(report.aggregate.devices, 2);
        }
        other => panic!("job regressed from Done: {other:?}"),
    }
}

#[test]
fn unknown_jobs_and_empty_specs_are_rejected() {
    let service = CompactionService::new(1);
    let spec =
        JobSpec::new(Vec::new(), MonteCarloConfig::new(10), CompactionConfig::paper_default());
    assert!(matches!(service.submit(spec), Err(ServeError::InvalidSpec(_))));

    let ok = service.submit(synthetic_pair_spec()).expect("valid spec queues");
    let _ = service.await_result(ok).expect("await");
    let bogus = stc_serve::JobId::from_raw(u64::MAX);
    assert!(matches!(service.status(bogus), Err(ServeError::UnknownJob(_))));
}

/// A seeded stochastic strategy runs end to end through a serve job spec:
/// an annealing job produces the same report as a direct batch run with the
/// equivalent strategy value.
#[test]
fn annealing_jobs_match_direct_batches() {
    let mut spec = synthetic_pair_spec();
    let annealing = SearchStrategy::Annealing { seed: 11, schedule: Default::default() };
    spec.strategy = annealing;
    let service = CompactionService::new(1);
    let report = service.run_blocking(spec).expect("annealing job runs");
    assert_eq!(report.search_strategy(), "simulated-annealing");

    let alpha = SyntheticDevice::new(4, 1.8, 0.9);
    let beta = SyntheticDevice::new(5, 1.5, 0.8);
    let direct = PipelineBatch::new()
        .device(&alpha)
        .device(&beta)
        .monte_carlo(MonteCarloConfig::new(120).with_seed(42))
        .compaction(CompactionConfig::paper_default().with_tolerance(0.1))
        .search(annealing)
        .run()
        .expect("direct batch runs");
    let direct_json = envelope::encode(&direct).expect("direct encodes");
    let service_json = envelope::encode(&report).expect("service encodes");
    assert_eq!(direct_json, service_json);
}

/// A name-only device standing in for measured data in the direct run.
#[derive(Debug)]
struct NameOnly(String);

impl DeviceUnderTest for NameOnly {
    fn name(&self) -> &str {
        &self.0
    }

    fn spec_names(&self) -> Vec<String> {
        Vec::new()
    }

    fn spec_units(&self) -> Vec<String> {
        Vec::new()
    }

    fn simulate_instance(&self, _rng: &mut rand::rngs::StdRng) -> Result<Vec<f64>, String> {
        Err("measured data is never simulated".to_string())
    }
}

/// A measured population runs through the service exactly like a direct
/// `run_with_population` on the same sets.
#[test]
fn measured_job_matches_a_direct_run() {
    let (train, test) = generate_train_test(
        &SyntheticDevice::new(5, 1.5, 0.8),
        &MonteCarloConfig::new(150).with_seed(77),
        90,
    )
    .expect("population simulates");
    let mut spec = synthetic_pair_spec();
    spec.devices.truncate(1);
    spec.devices.push(DeviceSpec::Measured {
        label: "lot-7".to_string(),
        train: train.clone(),
        test: test.clone(),
    });
    let service = CompactionService::new(1);
    let report = service.run_blocking(spec.clone()).expect("measured job runs");

    let measured = &report.runs[1];
    assert_eq!(measured.label, "lot-7");
    let direct = CompactionPipeline::for_device(&NameOnly("lot-7".to_string()))
        .compaction(spec.compaction.clone())
        .run_with_population(train, test)
        .expect("direct run");
    assert_eq!(
        envelope::encode(&measured.report).expect("service encodes"),
        envelope::encode(&direct).expect("direct encodes")
    );
}

/// A job whose shard labels repeat fails with the error a direct
/// `PipelineBatch::run` over the same entries returns, instead of finishing
/// with two runs under one label.
#[test]
fn a_job_with_repeated_shard_labels_fails_like_a_direct_batch() {
    let (train, test) = generate_train_test(
        &SyntheticDevice::new(4, 1.8, 0.9),
        &MonteCarloConfig::new(120).with_seed(5),
        60,
    )
    .expect("population simulates");
    let compaction = CompactionConfig::paper_default().with_tolerance(0.1);
    let direct = PipelineBatch::new()
        .compaction(compaction.clone())
        .measured("x", train.clone(), test.clone())
        .measured("x", train.clone(), test.clone())
        .run()
        .expect_err("a direct batch refuses a repeated label");

    let measured = DeviceSpec::Measured { label: "x".to_string(), train, test };
    let mut spec = synthetic_pair_spec();
    spec.devices = vec![measured.clone(), measured];
    spec.shard_threads = 2;
    match CompactionService::new(1).run_blocking(spec) {
        Err(ServeError::JobFailed(error)) => assert_eq!(error, direct.to_string()),
        other => panic!("the job must fail like the direct batch, got {other:?}"),
    }
}

/// A job that panics inside its pipeline fails alone: it ends `Failed`
/// with the panic message, and the one worker survives to run the next job.
#[test]
fn a_panicking_job_fails_and_the_worker_survives() {
    let service = CompactionService::new(1);
    let mut doomed = synthetic_pair_spec();
    // Valid on the wire, but pre-drawing the attempt seeds overflows the
    // allocator's capacity and panics.
    doomed.monte_carlo = MonteCarloConfig::new(1 << 62);
    let doomed = service.submit(doomed).expect("job queues");
    let next = service.submit(synthetic_pair_spec()).expect("second job queues");
    match service.await_result(doomed).expect("await") {
        JobStatus::Failed { error } => assert!(error.contains("panicked"), "{error}"),
        other => panic!("expected Failed, got {other:?}"),
    }
    let report = service.await_result(next).expect("await").report().cloned();
    assert_eq!(report.expect("the next job completes").aggregate.devices, 2);
}

/// A job whose calibration quantiles are not `0 < lower < upper < 1`
/// fails, although its synthetic devices bring their own ranges and never
/// calibrate.
#[test]
fn jobs_with_invalid_calibration_quantiles_fail() {
    let service = CompactionService::new(1);
    for (lower, upper) in [(0.9, 0.1), (0.5, 0.5), (f64::NAN, 0.9), (0.0, 0.5)] {
        let mut spec = synthetic_pair_spec();
        spec.monte_carlo = spec.monte_carlo.with_calibration_quantiles(lower, upper);
        let id = service.submit(spec).expect("job queues");
        match service.await_result(id).expect("await") {
            JobStatus::Failed { error } => assert!(error.contains("quantiles"), "{error}"),
            other => panic!("quantiles ({lower}, {upper}) must fail the job, got {other:?}"),
        }
    }
}

/// Malformed synthetic devices are refused at submission with a typed
/// error: inside a shard they would panic the worker thread and leave the
/// job `Running` forever.
#[test]
fn malformed_synthetic_devices_are_rejected_at_submission() {
    let service = CompactionService::new(1);
    for (specs, limit, correlation) in [
        (0, 1.8, 0.9),
        (4, -1.0, 0.9),
        (4, 0.0, 0.9),
        (4, f64::NAN, 0.9),
        (4, f64::INFINITY, 0.9),
        (4, 1.8, f64::NAN),
        (4, 1.8, f64::NEG_INFINITY),
    ] {
        let mut spec = synthetic_pair_spec();
        spec.devices.push(DeviceSpec::Synthetic { specs, limit, correlation });
        match service.submit(spec) {
            Err(ServeError::InvalidSpec(_)) => {}
            other => panic!(
                "synthetic device ({specs}, {limit}, {correlation}) must be rejected, got {other:?}"
            ),
        }
    }
    // The service is still healthy afterwards.
    let report = service.run_blocking(synthetic_pair_spec()).expect("valid job runs");
    assert_eq!(report.aggregate.devices, 2);
}

/// A thread count above 256 is refused at submission, before a worker
/// could start that many threads, and 256 itself passes validation.  No
/// spec here is ever run.
#[test]
fn oversized_thread_counts_are_rejected_at_submission() {
    let service = CompactionService::new(1);
    let setters: [fn(&mut JobSpec, usize); 3] = [
        |spec, threads| spec.monte_carlo.threads = threads,
        |spec, threads| spec.compaction.threads = threads,
        |spec, threads| spec.shard_threads = threads,
    ];
    for set in setters {
        for threads in [257, 1_000_000, usize::MAX] {
            let mut spec = synthetic_pair_spec();
            set(&mut spec, threads);
            match service.submit(spec) {
                Err(ServeError::InvalidSpec(message)) => {
                    assert!(message.contains(&threads.to_string()), "{message}")
                }
                other => panic!("{threads} threads must be rejected, got {other:?}"),
            }
        }
        let mut at_limit = synthetic_pair_spec();
        set(&mut at_limit, 256);
        assert!(at_limit.validate().is_ok());
    }
}
