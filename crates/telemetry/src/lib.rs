//! Std-only telemetry primitives for the Explain3D service.
//!
//! Two halves, both allocation-free on the hot path:
//!
//! * [`metrics`] — a process-wide [`Registry`] of
//!   atomic [`Counter`]s, [`Gauge`]s,
//!   and **log-linear bucketed** [`Histogram`]s
//!   (fixed-size `AtomicU64` bucket arrays; recording is one index
//!   computation plus three relaxed atomic adds — no locks, no
//!   allocation). The registry renders itself as Prometheus text
//!   exposition format (`# HELP`/`# TYPE`, cumulative `le` buckets,
//!   `_sum`/`_count`) via [`Exposition`], which also
//!   lets a scrape handler append point-in-time sampled values (queue
//!   depths, uptime) without pre-registering them.
//!
//! * [`trace`] — per-request structured traces: a seeded
//!   [`TraceIdGen`] (xoshiro256++, the same in-tree
//!   PRNG the workload generators use), a [`Trace`] that
//!   accumulates named spans with parent links and monotonic start/stop
//!   offsets, and a fixed-capacity **lock-striped**
//!   [`TraceRing`] retaining finished traces for
//!   `/debug/trace/<id>` and `/debug/slow` lookups.
//!
//! The crate deliberately knows nothing about HTTP, sessions, or the
//! registry lock family: consumers thread an `Option<Arc<…>>` handle and
//! pay a single branch when telemetry is disabled.

#![warn(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{Counter, Exposition, Gauge, Histogram, HistogramSnapshot, Registry};
pub use trace::{FinishedTrace, SpanRec, Trace, TraceIdGen, TraceRing, NO_PARENT};
