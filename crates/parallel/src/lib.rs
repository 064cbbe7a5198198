//! # explain3d-parallel
//!
//! Minimal, dependency-free data parallelism for the Explain3D workspace.
//!
//! The container this reproduction builds in has no access to crates.io, so
//! `rayon` is not available; this crate provides the small slice of it the
//! hot paths need, implemented with [`std::thread::scope`]:
//!
//! * [`par_map_stealing_weighted`] — a parallel map over an owned work list
//!   on a **work-stealing** pool (per-worker deques, steal from the tail of
//!   a victim) reporting [`StealStats`]; Stage 2 schedules sub-problem
//!   *components* on it, so one huge component no longer serialises the
//!   phase, and Stage 1 scores its candidate rows on it in contiguous
//!   blocks;
//! * [`TaskPool`] ([`pool`]) — a fixed, long-lived worker pool over a
//!   **bounded** job queue with non-blocking shed
//!   ([`TaskPool::try_execute`]), the admission-control primitive of the
//!   `explain3d-service` HTTP server.
//! * [`WakeSignal`] ([`wake`]) — a self-pipe readiness wakeup, so an event
//!   loop parked in `epoll_wait`/`poll` learns that a pool worker finished
//!   a job without polling a flag.
//!
//! Determinism contract: the batch entry point returns results **in input
//! order** regardless of how the items were scheduled across worker
//! threads, so callers that merge results sequentially observe exactly the
//! ordering of the sequential code path. (The [`TaskPool`] serves
//! independent jobs and makes no ordering promise.)

#![warn(missing_docs)]

pub mod pool;
pub mod wake;

pub use pool::{PoolMonitor, PoolSaturated, PoolStats, TaskPool};
pub use wake::WakeSignal;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism (1 when it cannot be determined).
pub fn max_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Scheduling statistics of one work-stealing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Worker threads actually used (1 for an inline run).
    pub workers: usize,
    /// Items executed.
    pub executed: usize,
    /// Items executed by a worker other than the one whose deque initially
    /// held them.
    pub steals: usize,
    /// Sum of item weights (the item count under unit weights).
    pub total_weight: usize,
    /// Peak summed weight of the items in flight at one instant — the
    /// scheduler-side residency metric: each worker holds at most one item,
    /// so this is bounded by `workers × max item weight`.
    pub peak_resident_weight: usize,
}

/// Maps `f` over `items` on a work-stealing worker pool, returning results
/// in input order plus scheduling statistics.
///
/// Items are dealt to per-worker deques in contiguous blocks; a worker pops
/// its own deque from the front and, when empty, steals from the *back* of
/// another worker's deque. Unlike a static one-item-per-worker split, a
/// single heavy item (e.g. one huge sub-problem component) no longer
/// serialises the phase: the other workers drain every remaining item
/// around it. `weight` is only used for the residency metric in the
/// returned stats.
///
/// `threads <= 1` (or fewer than two items) runs inline on the calling
/// thread with no spawning overhead — and bit-identical results, since
/// output order is input order either way.
pub fn par_map_stealing_weighted<T, R, W, F>(
    items: Vec<T>,
    threads: usize,
    weight: W,
    f: F,
) -> (Vec<R>, StealStats)
where
    T: Send,
    R: Send,
    W: Fn(&T) -> usize,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let weights: Vec<usize> = items.iter().map(&weight).collect();
    let total_weight: usize = weights.iter().sum();
    let workers = threads.min(n);
    if workers <= 1 {
        let peak = weights.iter().copied().max().unwrap_or(0);
        let out: Vec<R> = items.into_iter().map(f).collect();
        return (
            out,
            StealStats {
                workers: 1,
                executed: n,
                steals: 0,
                total_weight,
                peak_resident_weight: peak,
            },
        );
    }

    // Each slot is taken exactly once (guarded by the deques), so the
    // per-slot mutexes are uncontended; they exist only to move the owned
    // item out of shared state without `unsafe`.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        split_ranges(n, workers).into_iter().map(|r| Mutex::new(r.collect())).collect();
    let steals = AtomicUsize::new(0);
    let resident = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let slots = &slots;
    let deques = &deques;
    let weights = &weights;
    let f = &f;
    let steals_ref = &steals;
    let resident_ref = &resident;
    let peak_ref = &peak;

    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let mut task = deques[w].lock().expect("deque poisoned").pop_front();
                    if task.is_none() {
                        for off in 1..workers {
                            let victim = (w + off) % workers;
                            task = deques[victim].lock().expect("deque poisoned").pop_back();
                            if task.is_some() {
                                steals_ref.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    // Nothing left anywhere: items are never re-queued, so
                    // a full failed scan means the pool is drained.
                    let Some(idx) = task else { break };
                    let item = slots[idx]
                        .lock()
                        .expect("work slot poisoned")
                        .take()
                        .expect("work slot taken twice");
                    let wgt = weights[idx];
                    let now = resident_ref.fetch_add(wgt, Ordering::Relaxed) + wgt;
                    peak_ref.fetch_max(now, Ordering::Relaxed);
                    local.push((idx, f(item)));
                    resident_ref.fetch_sub(wgt, Ordering::Relaxed);
                }
                local
            }));
        }
        for h in handles {
            indexed.extend(h.join().expect("work-stealing worker panicked"));
        }
    });

    indexed.sort_by_key(|(idx, _)| *idx);
    debug_assert_eq!(indexed.len(), n);
    let stats = StealStats {
        workers,
        executed: n,
        steals: steals.load(Ordering::Relaxed),
        total_weight,
        peak_resident_weight: peak.load(Ordering::Relaxed),
    };
    (indexed.into_iter().map(|(_, r)| r).collect(), stats)
}

/// Splits `0..len` into at most `pieces` contiguous, near-equal ranges
/// (none empty). The work-stealing pool deals its per-worker deques this
/// way; it is also useful for chunking an index space into work items.
pub fn split_ranges(len: usize, pieces: usize) -> Vec<std::ops::Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let pieces = pieces.clamp(1, len);
    let base = len / pieces;
    let extra = len % pieces;
    let mut out = Vec::with_capacity(pieces);
    let mut start = 0;
    for i in 0..pieces {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work-stealing map at unit weight, results only.
    fn stolen<T: Send, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(T) -> R + Sync,
    ) -> Vec<R> {
        par_map_stealing_weighted(items, threads, |_| 1, f).0
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [4, 1, max_threads()] {
            assert_eq!(stolen(items.clone(), threads, |x| x * 2), expected, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_edge_cases() {
        assert_eq!(stolen(Vec::<usize>::new(), 4, |x| x), Vec::<usize>::new());
        assert_eq!(stolen(vec![7], 4, |x| x + 1), vec![8]);
        // More threads than items, and an exact multiple of the pool.
        assert_eq!(stolen(vec![1, 2], 16, |x| x), vec![1, 2]);
        assert_eq!(
            stolen((0..8).collect(), 4, |x| x * 3),
            (0..8).map(|x| x * 3).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_map_moves_owned_items() {
        let items = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        assert_eq!(stolen(items, 2, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn par_map_stealing_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [1, 2, 4, 16] {
            let (out, stats) = par_map_stealing_weighted(items.clone(), threads, |_| 1, |x| x * 2);
            assert_eq!(out, expected, "threads={threads}");
            assert_eq!(stats.executed, 1000);
            assert_eq!(stats.total_weight, 1000);
            assert!(stats.workers <= threads.max(1));
        }
        // Edge cases.
        let (out, stats) = par_map_stealing_weighted(Vec::<usize>::new(), 4, |_| 1, |x| x);
        assert!(out.is_empty());
        assert_eq!(stats.executed, 0);
        let (out, _) = par_map_stealing_weighted(vec![7], 4, |_| 1, |x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn par_map_stealing_weighted_tracks_residency() {
        let items: Vec<usize> = (0..64).collect();
        let (out, stats) = par_map_stealing_weighted(items, 4, |&x| x + 1, |x| x);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(stats.total_weight, (1..=64).sum::<usize>());
        // Each worker holds at most one item at a time.
        assert!(stats.peak_resident_weight <= 4 * 64);
        assert!(stats.peak_resident_weight >= 1);
    }

    #[test]
    fn work_is_stolen_from_a_blocked_worker() {
        // Two workers, blocks [0..4) and [4..8). Worker 1's items wait
        // until item 0 is *in flight* on worker 0, and item 0 blocks until
        // every other item has completed — so items 1, 2, 3 can only be
        // processed by worker 1, which must steal them from the back of
        // worker 0's deque. Exactly 3 steals on any OS schedule (and
        // deadlock-free: worker 1 drains everything while item 0 waits).
        let item0_started = AtomicUsize::new(0);
        let done_others = AtomicUsize::new(0);
        let job = |x: usize| {
            if x == 0 {
                item0_started.store(1, Ordering::Relaxed);
                while done_others.load(Ordering::Relaxed) < 7 {
                    std::thread::yield_now();
                }
            } else {
                while item0_started.load(Ordering::Relaxed) == 0 {
                    std::thread::yield_now();
                }
                done_others.fetch_add(1, Ordering::Relaxed);
            }
            x * 10
        };
        let (out, stats) = par_map_stealing_weighted((0..8).collect(), 2, |_| 1, job);
        assert_eq!(out, (0..8).map(|x| x * 10).collect::<Vec<_>>());
        assert_eq!(stats.steals, 3, "items 1..4 must be stolen from the blocked worker");
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn split_ranges_covers_exactly() {
        for (len, pieces) in [(10, 3), (3, 10), (1, 1), (100, 7)] {
            let ranges = split_ranges(len, pieces);
            assert!(ranges.len() <= pieces && !ranges.iter().any(|r| r.is_empty()));
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, len);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
        }
        assert!(split_ranges(0, 4).is_empty());
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
