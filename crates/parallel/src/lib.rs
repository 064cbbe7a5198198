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
//!   phase;
//! * [`par_map_iter_stealing`] — a **persistent worker pool** over a
//!   streaming source: workers pull the next item from a mutex-guarded
//!   iterator as they finish the previous one, holding at most `threads`
//!   items in flight, with no per-wave barrier or respawn. Peak-residency
//!   accounting lives here in the scheduler, where the in-flight set is
//!   actually known.
//! * [`TaskPool`] ([`pool`]) — a fixed, long-lived worker pool over a
//!   **bounded** job queue with non-blocking shed
//!   ([`TaskPool::try_execute`]), the admission-control primitive of the
//!   `explain3d-service` HTTP server.
//! * [`WakeSignal`] ([`wake`]) — a self-pipe readiness wakeup, so an event
//!   loop parked in `epoll_wait`/`poll` learns that a pool worker finished
//!   a job without polling a flag.
//!
//! Determinism contract: every batch entry point returns results **in
//! input order** regardless of how the items were scheduled across worker
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

/// Scheduling statistics of one work-stealing (or streaming) run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StealStats {
    /// Worker threads actually used (1 for an inline run).
    pub workers: usize,
    /// Items executed.
    pub executed: usize,
    /// Items executed by a worker other than the one whose deque initially
    /// held them (always 0 for shared-source streaming runs, where items
    /// have no home worker).
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

/// Maps `f` over the items of a (possibly unbounded) iterator on a
/// persistent worker pool, returning results in input order plus
/// scheduling statistics.
///
/// The pool is spawned once; each worker repeatedly pulls the next item
/// straight from the shared (mutex-guarded) source, processes it, and pulls
/// again. There is no per-wave barrier and no respawning: a slow item never
/// stalls the other workers, and at most `threads` items are in flight at
/// any instant. The residency accounting therefore lives *in the
/// scheduler*: `peak_resident_weight` is the observed peak of the summed
/// weights of in-flight items (≤ `threads × max item weight`).
pub fn par_map_iter_stealing<T, R, W, F>(
    source: impl Iterator<Item = T> + Send,
    threads: usize,
    weight: W,
    f: F,
) -> (Vec<R>, StealStats)
where
    T: Send,
    R: Send,
    W: Fn(&T) -> usize + Sync,
    F: Fn(T) -> R + Sync,
{
    let workers = threads.max(1);
    if workers == 1 {
        let mut out = Vec::new();
        let mut stats = StealStats { workers: 1, ..StealStats::default() };
        for item in source {
            let wgt = weight(&item);
            stats.executed += 1;
            stats.total_weight += wgt;
            stats.peak_resident_weight = stats.peak_resident_weight.max(wgt);
            out.push(f(item));
        }
        return (out, stats);
    }

    let shared: Mutex<(Box<dyn Iterator<Item = T> + Send>, usize)> =
        Mutex::new((Box::new(source), 0));
    let resident = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let total_weight = AtomicUsize::new(0);
    let shared = &shared;
    let weight = &weight;
    let f = &f;
    let resident_ref = &resident;
    let peak_ref = &peak;
    let total_ref = &total_weight;

    let mut indexed: Vec<(usize, R)> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    // Pull the next item while holding the source lock, so
                    // each item is pulled exactly once, in order.
                    let (item, idx) = {
                        let mut guard = shared.lock().expect("source poisoned");
                        match guard.0.next() {
                            Some(item) => {
                                let idx = guard.1;
                                guard.1 += 1;
                                (item, idx)
                            }
                            None => break,
                        }
                    };
                    let wgt = weight(&item);
                    total_ref.fetch_add(wgt, Ordering::Relaxed);
                    let now = resident_ref.fetch_add(wgt, Ordering::Relaxed) + wgt;
                    peak_ref.fetch_max(now, Ordering::Relaxed);
                    local.push((idx, f(item)));
                    resident_ref.fetch_sub(wgt, Ordering::Relaxed);
                }
                local
            }));
        }
        for h in handles {
            indexed.extend(h.join().expect("streaming worker panicked"));
        }
    });

    indexed.sort_by_key(|(idx, _)| *idx);
    let stats = StealStats {
        workers,
        executed: indexed.len(),
        steals: 0,
        total_weight: total_weight.load(Ordering::Relaxed),
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

    /// Both batch entry points at unit weight, results only.
    fn both<T: Send + Clone, R: Send>(
        items: Vec<T>,
        threads: usize,
        f: impl Fn(T) -> R + Sync,
    ) -> [Vec<R>; 2] {
        let stolen = par_map_stealing_weighted(items.clone(), threads, |_| 1, &f).0;
        let streamed = par_map_iter_stealing(items.into_iter(), threads, |_| 1, &f).0;
        [stolen, streamed]
    }

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for threads in [4, 1, max_threads()] {
            for out in both(items.clone(), threads, |x| x * 2) {
                assert_eq!(out, expected, "threads={threads}");
            }
        }
    }

    #[test]
    fn par_map_handles_edge_cases() {
        for out in both(Vec::<usize>::new(), 4, |x| x) {
            assert_eq!(out, Vec::<usize>::new());
        }
        for out in both(vec![7], 4, |x| x + 1) {
            assert_eq!(out, vec![8]);
        }
        // More threads than items.
        for out in both(vec![1, 2], 16, |x| x) {
            assert_eq!(out, vec![1, 2]);
        }
    }

    #[test]
    fn par_map_moves_owned_items() {
        let items = vec![String::from("a"), String::from("bb"), String::from("ccc")];
        for out in both(items, 2, |s| s.len()) {
            assert_eq!(out, vec![1, 2, 3]);
        }
    }

    #[test]
    fn par_map_iter_stealing_preserves_order() {
        let run = |source: std::ops::Range<usize>, threads: usize| {
            par_map_iter_stealing(source, threads, |_| 1, |x| x * 3).0
        };
        let expected: Vec<usize> = (0..997).map(|x| x * 3).collect();
        assert_eq!(run(0..997, 4), expected);
        assert_eq!(run(0..997, 1), expected);
        assert_eq!(run(0..0, 4), Vec::<usize>::new());
        // A single item, fewer items than the pool, and an exact multiple.
        assert_eq!(run(7..8, 8), vec![21]);
        assert_eq!(run(0..8, 4), (0..8).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_iter_stealing_keeps_the_source_close_to_the_workers() {
        // Workers pull one item each from the shared source, so the source
        // never runs more than the pool's in-flight window ahead of any
        // item being processed.
        let pulled = AtomicUsize::new(0);
        let source = (0..100usize).inspect(|_| {
            pulled.fetch_add(1, Ordering::Relaxed);
        });
        let max_lead = AtomicUsize::new(0);
        let track_lead = |x: usize| {
            let lead = pulled.load(Ordering::Relaxed).saturating_sub(x);
            max_lead.fetch_max(lead, Ordering::Relaxed);
            x
        };
        let (out, _) = par_map_iter_stealing(source, 4, |_| 1, track_lead);
        assert_eq!(out.len(), 100);
        assert_eq!(pulled.load(Ordering::Relaxed), 100);
        // Persistent pool: at most `threads` items are in flight, so the
        // lead over the oldest unprocessed item is bounded by the pool.
        assert!(max_lead.load(Ordering::Relaxed) <= 2 * 4, "source ran ahead of the pool");
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
    fn par_map_iter_stealing_reports_stream_stats() {
        let chunks: Vec<Vec<u32>> = (0..10).map(|i| vec![0u32; i + 1]).collect();
        for threads in [1, 3] {
            let (out, stats) =
                par_map_iter_stealing(chunks.clone().into_iter(), threads, Vec::len, |c| c.len());
            assert_eq!(out, (1..=10).collect::<Vec<_>>(), "threads={threads}");
            assert_eq!(stats.executed, 10);
            assert_eq!(stats.total_weight, (1..=10).sum::<usize>());
            assert!(stats.peak_resident_weight <= threads.max(1) * 10);
            assert!(stats.peak_resident_weight >= 10 / threads.max(1));
            assert_eq!(stats.steals, 0);
        }
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
