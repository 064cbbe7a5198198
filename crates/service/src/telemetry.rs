//! Service-side telemetry: the wired-up metric handles, the trace ring,
//! and the slow-request log.
//!
//! Everything here is **optional at runtime**: [`ServiceConfig::telemetry`]
//! is an `Option<Arc<Telemetry>>` and every hot-path instrumentation site
//! is a single branch on that option — with telemetry off the service
//! reads no clocks, touches no extra atomics, and allocates nothing (the
//! same unarmed-shim discipline the fault-injection layer uses).
//!
//! The struct pre-registers every hot-path metric once at construction,
//! so recording is an `Arc` deref plus relaxed `fetch_add`s — never a
//! registry lookup. Scrape-only values (registry lifetime counters, pool
//! stats, footprints) are sampled at `/metrics` render time instead of
//! being mirrored continuously.
//!
//! [`ServiceConfig::telemetry`]: crate::registry::ServiceConfig

use explain3d_parallel::PoolMonitor;
use explain3d_telemetry::{Counter, Histogram, Registry, Trace, TraceIdGen, TraceRing};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Route labels of the per-route request counters, in index order (the
/// index is what [`Telemetry::route_counter`] takes; `other` is last).
pub const ROUTES: [&str; 10] = [
    "create", "explain", "delta", "report", "drop", "sessions", "healthz", "metrics", "debug",
    "other",
];

/// Roughly how many finished traces `/debug/trace` retains.
const TRACE_CAPACITY: usize = 1024;

/// How telemetry is set up; see [`Telemetry::new`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Seed of the trace-id stream (deterministic per seed).
    pub trace_seed: u64,
    /// Optional on-disk slow-request log.
    pub slow_log: Option<SlowLogConfig>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig { trace_seed: 0xE3D, slow_log: None }
    }
}

/// Slow-log setup: requests slower than `threshold` append one JSON line
/// to `path`, which is truncated (restarted) whenever it would exceed
/// `max_bytes` — the log is bounded, never unbounded-append.
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// File the log lines are appended to.
    pub path: PathBuf,
    /// Requests at or above this wall time are logged.
    pub threshold: Duration,
    /// Size cap; the file restarts from empty when it would be exceeded.
    pub max_bytes: u64,
}

/// Default slow-log size cap (8 MiB).
pub const SLOW_LOG_MAX_BYTES: u64 = 8 << 20;

struct SlowLogFile {
    file: File,
    len: u64,
}

struct SlowLog {
    threshold_us: u64,
    max_bytes: u64,
    file: Mutex<SlowLogFile>,
}

impl SlowLog {
    fn open(config: &SlowLogConfig) -> std::io::Result<SlowLog> {
        let file = OpenOptions::new().create(true).append(true).open(&config.path)?;
        let len = file.metadata()?.len();
        Ok(SlowLog {
            threshold_us: config.threshold.as_micros() as u64,
            max_bytes: config.max_bytes.max(4096),
            file: Mutex::new(SlowLogFile { file, len }),
        })
    }

    fn record(&self, line: &str) {
        let mut guard = match self.file.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if guard.len + line.len() as u64 + 1 > self.max_bytes {
            // Bounded by restart: the cap is a ceiling, not a ring — the
            // newest entries matter and a truncate is one syscall.
            if guard.file.set_len(0).is_ok() {
                guard.len = 0;
            }
        }
        if guard.file.write_all(line.as_bytes()).is_ok() && guard.file.write_all(b"\n").is_ok() {
            guard.len += line.len() as u64 + 1;
        }
    }
}

/// A mutable borrow of an in-flight trace plus the span index new child
/// spans should parent under. Threaded `Option`ally through the registry's
/// traced entry points.
pub struct TraceCtx<'a> {
    /// The request's trace.
    pub trace: &'a mut Trace,
    /// Parent index for spans recorded at this level.
    pub parent: u32,
}

/// The service's armed telemetry: metric registry + pre-registered
/// hot-path handles, trace-id source, trace retention ring, uptime epoch,
/// and the optional slow log. Shared as one `Arc` via
/// [`ServiceConfig::telemetry`].
///
/// [`ServiceConfig::telemetry`]: crate::registry::ServiceConfig
pub struct Telemetry {
    registry: Arc<Registry>,
    ids: TraceIdGen,
    ring: TraceRing,
    started: Instant,
    slow: Option<SlowLog>,
    pool: OnceLock<PoolMonitor>,
    route_requests: Vec<Arc<Counter>>,
    /// End-to-end request wall time (first byte in → last byte out), µs.
    pub request_us: Arc<Histogram>,
    /// Parse-complete → a pool worker picks the request up, µs.
    pub queue_wait_us: Arc<Histogram>,
    /// Cold `explain` pipeline run time, µs.
    pub explain_run_us: Arc<Histogram>,
    /// Delta `re_explain` run time (a coalesced batch records one run per
    /// ticket — the run each ack waited on), µs.
    pub delta_run_us: Arc<Histogram>,
    /// Delta waiter time: ticket enqueue → outcome available, µs.
    pub delta_wait_us: Arc<Histogram>,
    /// Durable snapshot write time, µs.
    pub snapshot_us: Arc<Histogram>,
    /// WAL record append (the write syscall), µs.
    pub wal_append_us: Arc<Histogram>,
    /// WAL fsync time (only appends the sync policy flushed), µs.
    pub fsync_us: Arc<Histogram>,
    /// Stage-2 work-stealing events summed across pipeline runs.
    pub steals: Arc<Counter>,
    /// Requests answered `429` by the event loop (admission shed).
    pub shed: Arc<Counter>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("ring_capacity", &self.ring.capacity()).finish()
    }
}

impl Telemetry {
    /// Builds an armed telemetry instance (fails only if the slow-log
    /// file cannot be opened).
    pub fn new(config: TelemetryConfig) -> std::io::Result<Telemetry> {
        let registry = Arc::new(Registry::new());
        let route_requests = ROUTES
            .iter()
            .zip(ROUTE_LABELS)
            .map(|(_, labels)| {
                registry.counter_labeled(
                    "e3d_http_requests_total",
                    labels,
                    "Requests completed, by route",
                )
            })
            .collect();
        let slow = match &config.slow_log {
            Some(cfg) => Some(SlowLog::open(cfg)?),
            None => None,
        };
        Ok(Telemetry {
            ids: TraceIdGen::new(config.trace_seed),
            ring: TraceRing::new(TRACE_CAPACITY),
            started: Instant::now(),
            slow,
            pool: OnceLock::new(),
            route_requests,
            request_us: registry
                .histogram("e3d_request_us", "End-to-end request wall time, microseconds"),
            queue_wait_us: registry.histogram(
                "e3d_queue_wait_us",
                "Admission-queue wait before a worker picks the request up, microseconds",
            ),
            explain_run_us: registry
                .histogram("e3d_explain_run_us", "Cold explain pipeline run time, microseconds"),
            delta_run_us: registry
                .histogram("e3d_delta_run_us", "Delta re_explain run time, microseconds"),
            delta_wait_us: registry.histogram(
                "e3d_delta_wait_us",
                "Delta ticket enqueue-to-outcome wait, microseconds",
            ),
            snapshot_us: registry
                .histogram("e3d_snapshot_us", "Durable snapshot write time, microseconds"),
            wal_append_us: registry
                .histogram("e3d_wal_append_us", "WAL record append (write) time, microseconds"),
            fsync_us: registry.histogram("e3d_fsync_us", "WAL fsync time, microseconds"),
            steals: registry
                .counter("e3d_steals_total", "Stage-2 work-stealing events across pipeline runs"),
            shed: registry
                .counter("e3d_requests_shed_total", "Requests answered 429 by the event loop"),
            registry,
        })
    }

    /// The underlying metric registry (for `/metrics` rendering and for
    /// registering further metrics).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Seconds since this telemetry instance was armed (process uptime as
    /// far as the service is concerned).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Attaches the task pool's monitor once the server has built its
    /// pool; later calls are no-ops (first pool wins).
    pub fn attach_pool(&self, monitor: PoolMonitor) {
        let _ = self.pool.set(monitor);
    }

    /// The attached pool monitor, if the server has started.
    pub fn pool(&self) -> Option<&PoolMonitor> {
        self.pool.get()
    }

    /// Starts a trace for a request whose first bytes arrived at `epoch`.
    pub fn begin_trace(&self, epoch: Instant) -> Trace {
        Trace::new(self.ids.next_id(), epoch)
    }

    /// The trace retention ring (`/debug/trace`, `/debug/slow`).
    pub fn ring(&self) -> &TraceRing {
        &self.ring
    }

    /// Per-route completion counter; `route` indexes [`ROUTES`] (out of
    /// range clamps to `other`).
    pub fn route_counter(&self, route: usize) -> &Counter {
        let idx = route.min(self.route_requests.len() - 1);
        &self.route_requests[idx]
    }

    /// Seals a finished request: observes the end-to-end histogram, bumps
    /// the route counter, parks the trace in the ring, and appends a slow
    /// log line if the request was over threshold.
    pub fn finish_request(&self, trace: Trace, route: usize, total_us: u64) {
        self.request_us.observe(total_us);
        self.route_counter(route).inc();
        let id = trace.id;
        self.ring.push(trace.finish(total_us));
        if let Some(slow) = &self.slow {
            if total_us >= slow.threshold_us {
                let label = ROUTES[route.min(ROUTES.len() - 1)];
                slow.record(&format!(
                    "{{\"trace_id\":\"{id:016x}\",\"route\":\"{label}\",\"total_us\":{total_us}}}"
                ));
            }
        }
    }
}

/// Fixed label strings for the per-route counters (parallel to
/// [`ROUTES`]; `&'static` because the exposition requires it).
const ROUTE_LABELS: [&str; 10] = [
    r#"route="create""#,
    r#"route="explain""#,
    r#"route="delta""#,
    r#"route="report""#,
    r#"route="drop""#,
    r#"route="sessions""#,
    r#"route="healthz""#,
    r#"route="metrics""#,
    r#"route="debug""#,
    r#"route="other""#,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_log_is_bounded_by_restart() {
        let dir = std::env::temp_dir().join(format!("e3d-slowlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("slow.jsonl");
        let log = SlowLog::open(&SlowLogConfig {
            path: path.clone(),
            threshold: Duration::from_millis(1),
            max_bytes: 0, // clamps to the 4096-byte floor
        })
        .unwrap();
        let line = "x".repeat(100);
        for _ in 0..200 {
            log.record(&line);
        }
        let len = std::fs::metadata(&path).unwrap().len();
        assert!(len <= 4096, "slow log must stay under its cap, got {len}");
        assert!(len > 0, "slow log must retain the newest entries");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finish_request_parks_the_trace_and_counts_the_route() {
        let tel = Telemetry::new(TelemetryConfig::default()).unwrap();
        let trace = tel.begin_trace(Instant::now());
        let id = trace.id;
        tel.finish_request(trace, 2, 1234);
        assert_eq!(tel.ring().get(id).unwrap().total_us, 1234);
        assert_eq!(tel.route_counter(2).get(), 1);
        assert_eq!(tel.request_us.snapshot().count(), 1);
        // Out-of-range route indices clamp to `other` instead of panicking.
        tel.route_counter(usize::MAX).inc();
        assert_eq!(tel.route_counter(ROUTES.len() - 1).get(), 1);
    }
}
