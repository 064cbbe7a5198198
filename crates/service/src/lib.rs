//! # explain3d-service
//!
//! The multi-session explanation **service** layer of the Explain3D
//! reproduction: everything between the incremental [`ExplainSession`] and
//! a TCP socket.
//!
//! After PR 4 the repo could re-explain one evolving dataset pair cheaply —
//! but only as a library owned by one caller. This crate packages that
//! capability the way ProvSQL/MADlib package their engines: a long-lived,
//! concurrent, multi-tenant serving surface.
//!
//! * [`registry::SessionRegistry`] — a concurrent map of named sessions
//!   with per-session locking, **delta coalescing** (queued deltas against
//!   the same session merge into one `re_explain`), and LRU eviction under
//!   a configurable [`ExplainSession::memory_footprint`] budget;
//! * [`wire`] — the JSON wire protocol (relation uploads, delta ops,
//!   report serialisation), built on the in-tree parser/emitter in [`json`]
//!   (no serde, depth-limited, panic-free on arbitrary input). A report's
//!   `fingerprint` is the 32-hex-digit FNV-1a-128 digest of its
//!   [`explain3d_incremental::report_fingerprint`] bytes, and each report
//!   is encoded once ([`wire::ServedReport`]), then served from the stored
//!   text;
//! * [`http::Server`] — a readiness-based HTTP/1.1 server: one event loop
//!   ([`poller`]: raw `epoll` with a `poll(2)` fallback) owns every
//!   nonblocking socket and dispatches complete *requests* (never whole
//!   connections) onto a fixed [`explain3d_parallel::TaskPool`], so a slow
//!   MILP solve never blocks unrelated sockets; bounded admission queue
//!   with 429 shed, keep-alive connections, and per-request deterministic
//!   MILP deadlines;
//! * [`client::Client`] — the minimal TcpStream client the smoke tests and
//!   bench clients drive the wire with.
//!
//! ## The serving invariant
//!
//! Any interleaving of concurrent requests across sessions yields reports
//! **byte-identical** (equal [`explain3d_incremental::report_fingerprint`])
//! to the same operations applied serially per session — including under
//! delta coalescing and after LRU eviction + re-create. Per-session locks
//! serialise each session's runs; coalescing only concatenates ordered
//! edit scripts, which `re_explain`'s byte-identity-to-cold invariant
//! makes equivalent to running them one at a time. Pinned by
//! `tests/service_concurrency.rs` and the CI smoke lane.
//!
//! ```
//! use explain3d_service::registry::{ServiceConfig, SessionRegistry};
//! use explain3d_service::wire::parse_create;
//!
//! let registry = SessionRegistry::new(ServiceConfig::default());
//! let create = parse_create(r#"{
//!   "left":  {"name": "Q1", "columns": [["k", "str"]], "key": ["k"],
//!             "tuples": [{"values": ["CS"], "impact": 2.0},
//!                        {"values": ["Design"]}]},
//!   "right": {"name": "Q2", "columns": [["k", "str"]], "key": ["k"],
//!             "tuples": [{"values": ["CS"]}]},
//!   "match": {"left": "k", "right": "k"}
//! }"#).unwrap();
//! registry.create("demo", create).unwrap();
//! let report = registry.explain("demo", None, None).unwrap();
//! assert!(report.complete);
//! ```
//!
//! [`ExplainSession`]: explain3d_incremental::ExplainSession
//! [`ExplainSession::memory_footprint`]: explain3d_incremental::ExplainSession::memory_footprint

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod http;
pub mod json;
pub mod poller;
pub mod proto;
pub mod registry;
pub mod telemetry;
pub mod wire;

pub use client::{Client, ClientError, Response, RetryClient, RetryPolicy};
pub use error::ServiceError;
pub use http::{Server, ServerConfig, ServerHandle};
pub use poller::Backend;
pub use registry::{DeltaOutcome, RegistryStats, RunTimings, ServiceConfig, SessionRegistry};
pub use telemetry::{SlowLogConfig, Telemetry, TelemetryConfig};
