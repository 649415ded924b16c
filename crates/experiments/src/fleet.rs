//! Zero-dependency scoped-thread worker pool for the paper-scale
//! sweeps.
//!
//! The 152-combination rosters are embarrassingly parallel: every
//! `(combo, vf)` cell builds its own freshly seeded simulator, so cell
//! results depend only on the cell's index, never on execution order.
//! [`map_indexed`] exploits that: a shared atomic cursor hands out
//! indices to `jobs` scoped workers, each worker writes its result
//! into the slot for that index, and the assembled vector is identical
//! for any worker count — byte-identical CSVs at `--jobs 1` and
//! `--jobs N` fall out of the construction.
//!
//! Each worker carries its own [`TraceRecorder`] so the observability
//! layer needs no cross-thread contention during the sweep; the
//! per-worker recorders are folded into one merged snapshot at join
//! via [`TraceRecorder::absorb`].

use ppep_obs::{RecorderHandle, TraceRecorder, TraceSnapshot};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The machine's available parallelism (1 when unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs `task(index, recorder)` once for every index in `0..items`,
/// sharded across `jobs` worker threads, and returns the results in
/// index order together with the merged observability snapshot of the
/// per-worker recorders.
///
/// `task` must be a pure function of its index (up to the recorder):
/// workers claim indices from a shared cursor, so *which* worker runs
/// a given index — and in what order — is nondeterministic, but the
/// assembled output is not. `jobs` is clamped to `1..=items`.
///
/// # Panics
///
/// Re-raises the panic of a task that panics, once every worker has
/// stopped, so the results are never short of an index.
pub fn map_indexed<T, F>(items: usize, jobs: usize, task: F) -> (Vec<T>, TraceSnapshot)
where
    T: Send,
    F: Fn(usize, &RecorderHandle) -> T + Sync,
{
    let jobs = jobs.clamp(1, items.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items).map(|_| None).collect());
    let merged = TraceRecorder::new();

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let recorder = Arc::new(TraceRecorder::new());
                    let handle = RecorderHandle::new(recorder.clone());
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items {
                            break;
                        }
                        let value = task(index, &handle);
                        let mut guard = slots.lock().unwrap_or_else(|p| p.into_inner());
                        if let Some(slot) = guard.get_mut(index) {
                            *slot = Some(value);
                        }
                    }
                    recorder.snapshot()
                })
            })
            .collect();
        // A task's panic is the sweep's: re-raised rather than
        // returned as a result vector with that index missing.
        for worker in workers {
            match worker.join() {
                Ok(snapshot) => merged.absorb(&snapshot),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });

    let results = slots
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .flatten()
        .collect();
    (results, merged.snapshot())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_for_any_job_count() {
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let (got, _) = map_indexed(37, jobs, |i, _| i * i);
            assert_eq!(got, expected, "jobs = {jobs}");
        }
    }

    #[test]
    fn worker_recorders_merge_at_join() {
        let (_, snapshot) = map_indexed(10, 4, |_, rec| rec.add("fleet.cells", 1));
        assert_eq!(snapshot.counter("fleet.cells"), 10);
    }

    #[test]
    #[should_panic(expected = "task 5 failed")]
    fn a_panicking_task_panics_the_sweep() {
        let _ = map_indexed(12, 3, |i, _| {
            assert!(i != 5, "task {i} failed");
            i
        });
    }

    #[test]
    fn zero_items_is_fine() {
        let (got, _) = map_indexed(0, 8, |i, _| i);
        assert!(got.is_empty());
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
