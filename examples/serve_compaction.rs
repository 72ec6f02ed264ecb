//! Compaction as a service: the paper's two case studies through the
//! `stc-serve` job queue.
//!
//! ```text
//! cargo run --release --example serve_compaction
//! ```
//!
//! Submits the op-amp and MEMS accelerometer batches as two jobs on a
//! two-worker [`CompactionService`], plus a third (synthetic) job that is
//! cancelled while still queued.  While the jobs run, the example polls
//! [`CompactionService::status`] and prints the streaming anytime view —
//! models trained and best elimination frontier so far, per shard — to
//! stderr, since what a poll catches depends on timing.  It then prints
//! each job's outcome in submission order and round-trips one report
//! through the versioned JSON envelope, so stdout is the same in every run.
//!
//! Population sizes honour `STC_SCALE` (e.g. `STC_SCALE=0.05` for a smoke
//! run).

use std::time::Duration;

use spec_test_compaction::adapters::AccelerometerDevice;
use stc_core::{CompactionConfig, MonteCarloConfig};
use stc_serve::{
    envelope, ClassifierSpec, CompactionService, DeviceSpec, JobSpec, JobStatus, ServeError,
};

fn scaled(count: usize) -> usize {
    let scale = std::env::var("STC_SCALE")
        .ok()
        .and_then(|value| value.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.02, 1.0);
    ((count as f64 * scale) as usize).max(40)
}

fn main() -> Result<(), ServeError> {
    let service = CompactionService::new(2);

    // Job 1: the op-amp case study (paper Section 5.1 settings, scaled).
    let mut opamp = JobSpec::new(
        vec![DeviceSpec::OpAmp],
        MonteCarloConfig::new(scaled(300)).with_seed(2005).with_calibration_quantiles(0.02, 0.98),
        CompactionConfig::paper_default().with_tolerance(0.02),
    );
    opamp.classifier = ClassifierSpec::Svm;

    // Job 2: the MEMS accelerometer with its thermal-insertion cost model.
    let mut mems = JobSpec::new(
        vec![DeviceSpec::MemsAccelerometer],
        MonteCarloConfig::new(scaled(300)).with_seed(2005).with_calibration_quantiles(0.075, 0.925),
        CompactionConfig::paper_default().with_tolerance(0.02),
    );
    mems.classifier = ClassifierSpec::Svm;
    mems.cost_model = Some(AccelerometerDevice::cost_model());

    // Job 3: a synthetic batch we change our mind about.
    let doomed_spec = JobSpec::new(
        vec![DeviceSpec::Synthetic { specs: 6, limit: 1.8, correlation: 0.9 }],
        MonteCarloConfig::new(scaled(300)).with_seed(7),
        CompactionConfig::paper_default().with_tolerance(0.05),
    );

    let opamp_id = service.submit(opamp)?;
    let mems_id = service.submit(mems)?;
    let doomed = service.submit(doomed_spec)?;
    println!("submitted {opamp_id}, {mems_id}, {doomed}");

    // Both workers are busy with the first two jobs, so the third is still
    // queued and cancelling it is guaranteed to never train a model.
    service.cancel(doomed)?;
    println!("cancelled {doomed} while queued\n");

    // Poll the jobs until every one has ended, printing the anytime progress
    // stream.
    let jobs = [opamp_id, mems_id, doomed];
    loop {
        let mut running = false;
        for id in jobs {
            let status = service.status(id)?;
            running |= !status.is_terminal();
            if let JobStatus::Running { progress } = status {
                for shard in progress.shards.iter().filter(|shard| shard.started && !shard.finished)
                {
                    eprintln!(
                        "  {id} [{}] {} trainings, best frontier so far: {:?}",
                        shard.label, shard.trainings, shard.best_frontier
                    );
                }
            }
        }
        if !running {
            break;
        }
        std::thread::sleep(Duration::from_millis(150));
    }

    // The outcomes, in submission order.
    for id in jobs {
        match service.await_result(id)? {
            JobStatus::Done { report } => {
                println!("{id} done: {}\n", report.summary());
                for run in &report.runs {
                    println!("  [{}] {}", run.label, run.report.summary());
                }
                println!();
            }
            JobStatus::Failed { error } => println!("{id} failed: {error}"),
            JobStatus::Cancelled => println!("{id} cancelled (never trained)\n"),
            JobStatus::Queued | JobStatus::Running { .. } => {
                unreachable!("await_result returns a terminal status")
            }
        }
    }

    // Reports are wire-ready: round-trip the op-amp report through the
    // versioned JSON envelope.
    let status = service.await_result(opamp_id)?;
    let report = status.report().expect("op-amp job completed");
    let encoded = envelope::encode(report)?;
    let decoded: stc_core::BatchReport = envelope::decode(&encoded)?;
    assert_eq!(envelope::encode(&decoded)?, encoded);
    println!(
        "op-amp report JSON: {} bytes (schema v{}), round-trips byte-for-byte",
        encoded.len(),
        stc_serve::SCHEMA_VERSION
    );
    Ok(())
}
