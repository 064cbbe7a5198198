//! A fixed, long-lived worker pool over a **bounded** job queue — the
//! serving-side counterpart of the batch entry point in the crate root.
//!
//! The batch scheduler ([`crate::par_map_stealing_weighted`]) spawns scoped
//! workers for one work list and joins them when it drains. A server cannot do that: work arrives
//! forever, one item at a time, and the pool must exist before any of it
//! does. [`TaskPool`] keeps `threads` workers parked on a condvar and feeds
//! them through a queue of at most `queue_capacity` pending jobs:
//!
//! * [`TaskPool::try_execute`] enqueues a job or — when the queue is full —
//!   returns it to the caller as [`PoolSaturated`] **without blocking**.
//!   That is the admission-control primitive: the caller sheds load (an
//!   HTTP 429) instead of building an unbounded backlog.
//! * Dropping the pool closes the queue, wakes every worker, runs the jobs
//!   already admitted to completion, and joins the threads — admitted work
//!   is never silently discarded.
//!
//! Jobs may panic: each job runs under `catch_unwind` (no pool lock is
//! held across it, so nothing can be poisoned) and a panic costs only that
//! job — the worker recovers in place and keeps serving, and
//! [`PoolStats::respawns`] counts how often that happened. Servers should
//! still catch and convert failures *inside* the job so callers get typed
//! errors; `explain3d-service` does, and treats a nonzero `respawns` as a
//! bug signal rather than a capacity loss.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue was at capacity: the job is handed back to the caller so it
/// can shed the request instead of blocking.
pub struct PoolSaturated(pub Job);

impl std::fmt::Debug for PoolSaturated {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PoolSaturated(..)")
    }
}

/// Lifetime counters of a [`TaskPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs accepted into the queue.
    pub admitted: usize,
    /// Jobs rejected because the queue was at capacity.
    pub shed: usize,
    /// Jobs that finished executing.
    pub executed: usize,
    /// Jobs that panicked; each cost one worker recovery (the worker is
    /// reused in place), never pool capacity.
    pub respawns: usize,
}

struct PoolState {
    queue: VecDeque<Job>,
    closed: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    not_empty: Condvar,
    queue_capacity: usize,
    admitted: AtomicUsize,
    shed: AtomicUsize,
    executed: AtomicUsize,
    respawns: AtomicUsize,
}

/// A fixed pool of worker threads over a bounded job queue; see the module
/// docs for the admission-control contract.
pub struct TaskPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl TaskPool {
    /// Spawns `threads` workers (at least 1) sharing a queue of at most
    /// `queue_capacity` pending jobs (at least 1).
    pub fn new(threads: usize, queue_capacity: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { queue: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            queue_capacity: queue_capacity.max(1),
            admitted: AtomicUsize::new(0),
            shed: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            respawns: AtomicUsize::new(0),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("explain3d-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        TaskPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Jobs currently waiting in the queue (not the ones executing).
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("pool state poisoned").queue.len()
    }

    /// Lifetime admission/shed/completion counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
        }
    }

    /// A cloneable, read-only view of this pool's counters and queue
    /// depth that outlives no pool but can travel away from it (e.g. into
    /// a metrics scrape handler) without borrowing the pool itself.
    pub fn monitor(&self) -> PoolMonitor {
        PoolMonitor { shared: Arc::clone(&self.shared), threads: self.workers.len() }
    }

    /// Enqueues `job` unless the queue is at capacity, in which case the
    /// job is returned inside [`PoolSaturated`] without blocking — the
    /// caller decides how to shed it.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), PoolSaturated> {
        let mut state = self.shared.state.lock().expect("pool state poisoned");
        if state.queue.len() >= self.shared.queue_capacity {
            drop(state);
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(PoolSaturated(Box::new(job)));
        }
        state.queue.push_back(Box::new(job));
        drop(state);
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

/// A detached observer of one [`TaskPool`]: the lifetime counters plus
/// the instantaneous queue depth. Holding one does not keep workers alive
/// or affect shutdown — it shares only the counter block.
#[derive(Clone)]
pub struct PoolMonitor {
    shared: Arc<PoolShared>,
    threads: usize,
}

impl PoolMonitor {
    /// Lifetime admission/shed/completion counters (same as
    /// [`TaskPool::stats`]).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            executed: self.shared.executed.load(Ordering::Relaxed),
            respawns: self.shared.respawns.load(Ordering::Relaxed),
        }
    }

    /// Jobs currently waiting in the queue. Takes the pool's queue lock
    /// briefly; intended for scrape-time sampling, not hot paths.
    pub fn queued(&self) -> usize {
        match self.shared.state.lock() {
            Ok(state) => state.queue.len(),
            Err(poisoned) => poisoned.into_inner().queue.len(),
        }
    }

    /// Number of worker threads the pool was built with.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl Drop for TaskPool {
    /// Closes the queue, drains the already-admitted jobs, and joins the
    /// workers.
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool state poisoned").closed = true;
        self.shared.not_empty.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool state poisoned");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.closed {
                    return;
                }
                state = shared.not_empty.wait(state).expect("pool state poisoned");
            }
        };
        // No pool lock is held here, so a panicking job can poison nothing;
        // containing it keeps this worker alive (one bad request must never
        // shrink the pool permanently).
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            shared.respawns.fetch_add(1, Ordering::Relaxed);
        }
        shared.executed.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_admitted_jobs() {
        let pool = TaskPool::new(4, 64);
        let (tx, rx) = mpsc::channel::<usize>();
        for i in 0..32 {
            let tx = tx.clone();
            pool.try_execute(move || tx.send(i).unwrap()).unwrap();
        }
        drop(tx);
        let mut got: Vec<usize> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        assert_eq!(pool.stats().admitted, 32);
        assert_eq!(pool.stats().shed, 0);
    }

    #[test]
    fn sheds_when_the_queue_is_full() {
        // One worker blocked on a gate, queue of 2: the third enqueue and
        // beyond must be rejected without blocking.
        let pool = TaskPool::new(1, 2);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.try_execute(move || {
            started_tx.send(()).unwrap();
            gate_rx.recv().unwrap();
        })
        .unwrap();
        started_rx.recv_timeout(Duration::from_secs(5)).expect("worker picked up the gate job");
        // Worker busy: these two fill the queue.
        pool.try_execute(|| {}).unwrap();
        pool.try_execute(|| {}).unwrap();
        let rejected = pool.try_execute(|| {});
        assert!(rejected.is_err(), "a full queue must shed");
        assert_eq!(pool.stats().shed, 1);
        // The rejected job is handed back and still runnable by the caller.
        let ran = Arc::new(AtomicUsize::new(0));
        let ran2 = Arc::clone(&ran);
        let PoolSaturated(job) = pool
            .try_execute(move || {
                ran2.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap_err();
        job();
        assert_eq!(ran.load(Ordering::Relaxed), 1);
        gate_tx.send(()).unwrap();
    }

    #[test]
    fn drop_drains_admitted_work() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = TaskPool::new(2, 128);
            for _ in 0..100 {
                let counter = Arc::clone(&counter);
                pool.try_execute(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            }
            // Dropping here must run all 100 admitted jobs before joining.
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn a_panicking_job_never_shrinks_the_pool() {
        // Single worker: if the panic killed it, the follow-up jobs would
        // never run and the recv below would time out.
        let pool = TaskPool::new(1, 16);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // silence the expected panics
        for _ in 0..3 {
            pool.try_execute(|| panic!("bad request")).unwrap();
        }
        let (tx, rx) = mpsc::channel::<u8>();
        pool.try_execute(move || tx.send(9).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).expect("worker survived the panics"), 9);
        std::panic::set_hook(prev);
        // `executed` is bumped after the job body returns; give the worker
        // a moment to get there.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().executed < 4 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        let stats = pool.stats();
        assert_eq!(stats.respawns, 3);
        assert_eq!(stats.executed, 4, "panicked jobs still count as executed");
    }

    #[test]
    fn minimum_sizes_are_clamped() {
        let pool = TaskPool::new(0, 0);
        assert_eq!(pool.threads(), 1);
        let (tx, rx) = mpsc::channel::<u8>();
        pool.try_execute(move || tx.send(7).unwrap()).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
    }
}
