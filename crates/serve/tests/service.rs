//! Service-level behaviour: shard/direct parity, cancellation semantics,
//! budget exhaustion, and streaming progress.

use stc_core::search::{SearchBudget, SimulatedAnnealing};
use stc_core::{CompactionConfig, MonteCarloConfig, PipelineBatch, SyntheticDevice};
use stc_serve::{
    envelope, ClassifierSpec, CompactionService, DeviceSpec, JobSpec, JobStatus, ServeError,
    StrategySpec,
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

/// A budget too small to finish the search must still produce `Done` — the
/// anytime contract — with the exhaustion recorded in the report, never a
/// `Failed` status.
#[test]
fn budget_exhausted_jobs_complete_as_done() {
    let mut spec = synthetic_pair_spec();
    spec.budget = Some(SearchBudget::unlimited().with_max_trainings(1));
    let service = CompactionService::new(1);
    let id = service.submit(spec).expect("job queues");
    let status = service.await_result(id).expect("await");
    let report = match status {
        JobStatus::Done { report } => report,
        other => panic!("budget exhaustion must not fail the job: {other:?}"),
    };
    assert_eq!(report.budget_exhausted_runs(), 2);
    for run in &report.runs {
        assert!(run.report.budget().exhausted, "run {} should be truncated", run.label);
    }
    assert!(report.summary().contains("search budget exhausted in 2 of 2 runs"));
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
                if progress.eliminated_so_far() > 0 {
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
    spec.strategy = StrategySpec::Annealing { seed: 11, schedule: Default::default() };
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
        .search(SimulatedAnnealing::new(11))
        .run()
        .expect("direct batch runs");
    let direct_json = envelope::encode(&direct).expect("direct encodes");
    let service_json = envelope::encode(&report).expect("service encodes");
    assert_eq!(direct_json, service_json);
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
