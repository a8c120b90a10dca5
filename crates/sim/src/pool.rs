//! A tiny deterministic fork-join pool for embarrassingly parallel index
//! ranges.
//!
//! [`run_indexed`] computes `f(0), f(1), …, f(jobs - 1)` on a set of scoped
//! worker threads and returns the results **in index order**. Because each
//! job depends only on its index (callers derive any randomness from a seed
//! mixed with the index — see [`crate::split_seed`]), the result is
//! bit-identical to a sequential loop regardless of the worker count or
//! scheduling. This is the primitive behind the parallel scenario fleet in
//! `lifting-runtime` and the parallel Monte-Carlo trials in
//! `lifting-analysis`.
//!
//! The worker count defaults to the available hardware parallelism, capped by
//! the job count, and can be overridden with the `LIFTING_WORKERS` environment
//! variable (`LIFTING_WORKERS=1` forces sequential execution — useful for
//! timing comparisons and determinism checks).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker count (0 or unset = automatic).
pub const WORKERS_ENV: &str = "LIFTING_WORKERS";

thread_local! {
    /// True while the current thread is a pool worker. Nested [`run_indexed`]
    /// calls (an experiment fanning out scenarios that fan out Monte-Carlo
    /// trials) then run sequentially instead of multiplying threads at every
    /// level and oversubscribing the CPU; only the outermost fan-out
    /// parallelizes. Results are unaffected — jobs are pure in their index.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// The number of worker threads that [`run_indexed`] would use for `jobs`
/// independent jobs.
pub fn worker_count(jobs: usize) -> usize {
    // `available_parallelism` re-reads the cgroup quota files (several
    // syscalls) on every call — cache the process-constant answer. The
    // `LIFTING_WORKERS` override stays a live read: tests flip it
    // mid-process to compare worker counts.
    static HW: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    let hw = *HW.get_or_init(|| {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let configured = std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(hw);
    configured.min(jobs).max(1)
}

/// Runs `f(i)` for every `i in 0..jobs` across scoped worker threads and
/// returns the results in index order.
///
/// Work is claimed in contiguous chunks from an atomic cursor, so the
/// per-job overhead stays negligible even for very small jobs; the output
/// order (and therefore the result) never depends on thread scheduling.
///
/// # Panics
///
/// Propagates a panic from any job (the first observed one).
pub fn run_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = if IN_POOL.with(Cell::get) {
        1 // nested fan-out: the outer pool already owns the cores
    } else {
        worker_count(jobs)
    };
    if workers <= 1 {
        return (0..jobs).map(f).collect();
    }
    // Chunked claiming: large enough to amortize the atomic, small enough to
    // balance uneven job costs.
    let chunk = (jobs / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let f = &f;

    let mut collected: Vec<(usize, Vec<T>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    IN_POOL.with(|flag| flag.set(true));
                    let mut out: Vec<(usize, Vec<T>)> = Vec::new();
                    loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= jobs {
                            break;
                        }
                        let end = (start + chunk).min(jobs);
                        out.push((start, (start..end).map(f).collect()));
                    }
                    out
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            match handle.join() {
                Ok(part) => all.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        all
    });

    collected.sort_by_key(|(start, _)| *start);
    let mut results = Vec::with_capacity(jobs);
    for (_, part) in collected {
        results.extend(part);
    }
    debug_assert_eq!(results.len(), jobs);
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(1_000, |i| i * 3);
        assert_eq!(out, (0..1_000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_execution_bit_for_bit() {
        let f = |i: usize| {
            // A little seed-derived pseudo-randomness, as real callers do.
            let mut x = crate::split_seed(42, i as u64);
            x ^= x >> 13;
            x as f64 / u64::MAX as f64
        };
        let parallel = run_indexed(257, f);
        let sequential: Vec<f64> = (0..257).map(f).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u8> = run_indexed(0, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn worker_count_is_capped_by_jobs() {
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1_000) >= 1);
    }

    #[test]
    fn nested_calls_do_not_multiply_workers() {
        // Inner run_indexed calls made from a pool worker must run inline on
        // that worker; the thread count stays bounded by the outer fan-out.
        let out = run_indexed(4, |i| {
            let inner = run_indexed(8, move |j| i * 10 + j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            run_indexed(8, |i| {
                if i == 3 {
                    panic!("job failed");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
