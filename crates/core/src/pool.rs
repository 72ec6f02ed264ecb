//! The one worker pool every parallel loop of the workspace runs on:
//! Monte-Carlo simulation, speculative candidate evaluation, batch entries
//! and the job service's shards.
//!
//! Workers steal the next unstarted index from a shared counter, so slow
//! jobs never serialise the rest behind them, and outcomes come back in
//! index order, so results never depend on the thread count.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Runs `job(index)` for every index in `0..count` on up to `threads`
/// scoped workers and returns the outcomes in index order.
///
/// Once `stop` is set, indices that have not started yet return `None`;
/// jobs already running finish.  Indices are handed out in ascending order,
/// so every index below a started one has started too.  With one thread (or
/// at most one index) the jobs run inline on the caller's thread.  A
/// panicking job stops the unstarted indices, and its panic resumes on the
/// caller once every worker has returned.
pub fn run_indexed<T, F>(count: usize, threads: usize, stop: &AtomicBool, job: F) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.min(count);
    if workers <= 1 {
        return (0..count)
            .map(|index| (!stop.load(Ordering::Relaxed)).then(|| job(index)))
            .collect();
    }
    // `next` and `stop` publish no data (outcomes travel through the joins),
    // so relaxed ordering suffices for both.
    let next = AtomicUsize::new(0);
    let mut outcomes: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut panicked = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= count {
                            break;
                        }
                        match panic::catch_unwind(AssertUnwindSafe(|| job(index))) {
                            Ok(outcome) => done.push((index, outcome)),
                            Err(payload) => {
                                // Leave nothing for the other workers to start.
                                next.store(count, Ordering::Relaxed);
                                return Err(payload);
                            }
                        }
                    }
                    Ok(done)
                })
            })
            .collect();
        for handle in handles {
            match handle.join().expect("pool workers catch job panics") {
                Ok(done) => {
                    for (index, outcome) in done {
                        outcomes[index] = Some(outcome);
                    }
                }
                Err(payload) => {
                    panicked.get_or_insert(payload);
                }
            }
        }
    });
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    outcomes
}

/// [`run_indexed`] over fallible jobs: the first error stops the unstarted
/// indices, and the lowest-index error is returned.  On success every index
/// ran and the values come back in index order.
///
/// # Errors
///
/// Returns the error of the lowest failing index.
pub fn try_run_indexed<T, E, F>(count: usize, threads: usize, job: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let failed = AtomicBool::new(false);
    let outcomes = run_indexed(count, threads, &failed, |index| {
        let outcome = job(index);
        if outcome.is_err() {
            failed.store(true, Ordering::Relaxed);
        }
        outcome
    });
    // Every index below a failing one started, so the lowest error comes
    // before the first index the stop left unstarted.
    outcomes.into_iter().map_while(|outcome| outcome).collect()
}

/// The message of a panic payload (`panic!` carries a `&str` or a `String`).
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    match (payload.downcast_ref::<&str>(), payload.downcast_ref::<String>()) {
        (Some(message), _) => message.to_string(),
        (_, Some(message)) => message.clone(),
        _ => "non-string panic payload".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(threads: usize) -> Vec<Option<usize>> {
        run_indexed(37, threads, &AtomicBool::new(false), |index| index * index)
    }

    #[test]
    fn outcomes_are_in_index_order_at_any_thread_count() {
        let expected: Vec<Option<usize>> = (0..37).map(|index| Some(index * index)).collect();
        assert_eq!(squares(1), expected);
        assert_eq!(squares(4), expected);
    }

    #[test]
    fn a_set_stop_leaves_every_later_index_unstarted() {
        let stop = AtomicBool::new(false);
        let outcomes = run_indexed(6, 1, &stop, |index| {
            if index == 2 {
                stop.store(true, Ordering::Relaxed);
            }
            index
        });
        assert_eq!(outcomes, vec![Some(0), Some(1), Some(2), None, None, None]);
    }

    #[test]
    fn a_panicking_job_resumes_on_the_caller() {
        for threads in [1, 4] {
            let caught = panic::catch_unwind(|| {
                run_indexed(16, threads, &AtomicBool::new(false), |index| {
                    assert_ne!(index, 5, "job five fails");
                    index
                })
            });
            let payload = caught.expect_err("the panic reaches the caller");
            let message = payload.downcast_ref::<String>().expect("formatted panic message");
            assert!(message.contains("job five fails"), "{message}");
        }
    }

    #[test]
    fn the_lowest_index_error_wins() {
        let every_seventh_fails =
            |index: usize| if index % 7 == 4 { Err(index) } else { Ok(index) };
        for threads in [1, 3] {
            assert_eq!(try_run_indexed(20, threads, every_seventh_fails), Err(4));
            let all: Result<Vec<usize>, usize> = try_run_indexed(20, threads, Ok);
            assert_eq!(all, Ok((0..20).collect()));
        }
    }
}
