//! The session registry: many named [`ExplainSession`]s behind per-session
//! locks, with delta coalescing and LRU eviction under a memory budget.
//!
//! ## Concurrency model
//!
//! The registry index is **sharded**: session names hash (FNV-1a) onto a
//! fixed array of 16 lock stripes, each stripe a
//! `RwLock<HashMap<name, Arc<Slot>>>`, so at high connection counts name
//! lookups contend only within their stripe — contended acquisitions are
//! counted per shard and surfaced as [`RegistryStats::shard_contention`].
//! Each slot owns
//! its session behind a dedicated `Mutex`, so operations on *different*
//! sessions never contend and operations on the *same* session serialise.
//! That serialisation is the whole correctness story: every report a
//! client sees is produced by the session's own single-threaded
//! `explain`/`re_explain` path, so any interleaving of concurrent requests
//! is byte-identical (fingerprint-equal) to the same operations applied
//! serially per session in the order the registry admitted them —
//! `tests/service_concurrency.rs` pins this over randomized interleavings.
//!
//! Reads do not take the session lock. Each run publishes its report, as
//! an `Arc<`[`ServedReport`]`>`, into a per-slot leaf cell before any
//! caller is acknowledged; [`SessionRegistry::report`] clones the `Arc`
//! out of that cell, so a read never waits for a running `re_explain`
//! and always sees the latest acknowledged report.
//!
//! ## Delta coalescing
//!
//! A delta request enqueues a ticket on its session's pending queue, then
//! competes for the session lock. Whoever wins drains the **whole** queue
//! and serves it in admission order, concatenating each maximal run of
//! consecutive **same-deadline** tickets into **one** `re_explain` —
//! deltas are ordered edit scripts, so applying `A ++ B` is definitionally
//! the same relation state as applying `A` then `B`, and `re_explain`'s
//! byte-identity-to-cold invariant makes the final report identical to the
//! serial pair of calls. (Tickets with different `deadline_ms` never
//! share a run: serially each would solve under its own deterministic
//! node budget.) Every coalesced waiter receives the post-run report. If
//! a merged script fails (an op out of range), the registry falls back to
//! replaying each ticket individually so each caller gets exactly the
//! success or typed error a serial execution would have given it —
//! coalescing is a pure fast path, never a semantic change.
//!
//! ## Eviction
//!
//! Each slot caches its session's [`ExplainSession::memory_footprint`]
//! after every run. When the total exceeds
//! [`ServiceConfig::memory_budget`], least-recently-used idle sessions are
//! dropped (never the most recently touched one, never one that is busy or
//! has queued work). Without durability an evicted session is simply
//! gone — re-creating it and replaying its deltas reproduces the same
//! fingerprints, which the torture test also pins.
//!
//! ## Durability
//!
//! With [`ServiceConfig::durability`] set, every session becomes durable:
//! creation writes a seq-0 snapshot, every *successfully applied* delta is
//! appended to the session's WAL (after `re_explain` succeeds, **before**
//! the ticket is acknowledged — so the log is exactly the acknowledged
//! prefix and a crash can never lose an acked delta to `kill -9`), and a
//! fresh snapshot replaces the log every
//! [`snapshot_every`](explain3d_durability::DurabilityConfig::snapshot_every)
//! records. Eviction becomes **spill-to-disk** (a final snapshot, then the
//! slot is dropped) and any request naming a non-resident session
//! transparently recovers it: snapshot + WAL-suffix replay + one cold
//! explain under the last recorded deadline, which the
//! byte-identity-to-cold invariant makes fingerprint-equal to the report
//! the session last served. Recovered sessions start with an empty
//! [`SessionRegistry::delta_log`] (the in-memory test oracle), and
//! deadline-scoped `explain` overrides are durable only via the snapshot's
//! `last_deadline` — both are serving-equivalent, not byte-level, caveats.
//!
//! ## Degraded mode (the durability state machine)
//!
//! A WAL or snapshot I/O failure never corrupts serving and never deletes
//! on-disk state. Instead each session walks an explicit state machine:
//! **Durable → Degraded → Reconciled**. On the first storage failure the
//! session *degrades*: its broken writer is dropped, its on-disk state is
//! left exactly where the last successful write put it (the durable acked
//! prefix — a crash while degraded recovers to it), and what happens to
//! the failing request depends on [`ServiceConfig::durability_mode`]:
//!
//! * [`DurabilityMode::BestEffort`] — the session keeps serving from
//!   memory; every response carries `durability: "degraded"` so clients
//!   can see the weakened guarantee, and each subsequent request (plus
//!   the periodic [`SessionRegistry::reattach_degraded`] sweep) retries a
//!   *re-attach*: a fresh snapshot of the current in-memory state written
//!   atomically over the stale one, after which the session is
//!   **Reconciled** (fully durable again, labelled `"reconciled"`).
//! * [`DurabilityMode::Strict`] — a delta that cannot be logged answers a
//!   typed `503 durability_unavailable` (with `Retry-After`), so a client
//!   ack always implies the delta is on disk. The delta that *triggered*
//!   the failure was already applied in memory; its `request_id` enters
//!   the retry-dedup window so the client's retry (after re-attach)
//!   acks exactly once instead of double-applying.
//!
//! On-disk state that recovery finds corrupt (bad checksum, WAL gap, a
//! logged delta that no longer applies) is **quarantined** — renamed
//! aside under `quarantine/`, never deleted — and the name answers
//! `SessionNotFound` so a client can re-create it. State written in a
//! format version this build cannot read is not corrupt: recovery refuses
//! it with a typed `UnsupportedVersion` error and leaves the files alone.
//!
//! ## Exactly-once client retries
//!
//! Deltas may carry a client-generated `request_id`. Each session keeps a
//! bounded window of recently applied `(request_id, seq)` pairs —
//! persisted in WAL records and snapshots, rebuilt on recovery — and a
//! delta whose `request_id` is already in the window is **not re-applied**:
//! the caller gets the current report with `deduplicated: true`. A retry
//! of a delta whose first attempt was acked-but-response-lost therefore
//! applies exactly once, pinned by fingerprint equality to serial replay.

use crate::error::ServiceError;
use crate::telemetry::{Telemetry, TraceCtx};
use crate::wire::{CreateRequest, DeltaRequest, RelationShape, ServedReport};
use explain3d_core::pipeline::PipelineStats;
use explain3d_durability::{
    DurabilityConfig, DurabilityError, RecoveredSession, SessionSnapshot, SessionStore, WalRecord,
    WalWriter,
};
use explain3d_incremental::{ExplainSession, RelationDelta};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, TryLockError};
use std::time::{Duration, Instant};

/// How long a coalescing waiter sleeps before re-checking its ticket and
/// re-competing for the session lock. Purely a liveness bound — the
/// common path is woken by `notify_all` well before it expires.
const TICKET_POLL: Duration = Duration::from_millis(2);

/// Lock stripes in the session index. The memory budget and LRU policy
/// stay **global** across stripes: sharding changes lookup contention,
/// never which session is evicted.
const SHARDS: usize = 16;

/// What a storage failure means for the session it hits; see the
/// "Degraded mode" section of the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DurabilityMode {
    /// Keep serving from memory with `durability: "degraded"` on every
    /// response, re-attaching in the background. The default.
    #[default]
    BestEffort,
    /// A delta that cannot be logged answers `503 durability_unavailable`
    /// — an ack always implies the delta is on disk.
    Strict,
}

impl DurabilityMode {
    /// Parses the `--durability` CLI spelling.
    pub fn parse(raw: &str) -> Option<DurabilityMode> {
        match raw {
            "best-effort" => Some(DurabilityMode::BestEffort),
            "strict" => Some(DurabilityMode::Strict),
            _ => None,
        }
    }
}

/// Registry-level configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Soft cap on the summed [`ExplainSession::memory_footprint`] across
    /// all resident sessions; `None` disables eviction.
    pub memory_budget: Option<usize>,
    /// Record every successfully applied delta per session, retrievable
    /// via [`SessionRegistry::delta_log`] — the serial-replay oracle used
    /// by the equivalence tests. Off by default (it retains every delta).
    pub record_deltas: bool,
    /// Durable sessions: WAL + snapshots under the configured directory,
    /// spill-to-disk eviction, and transparent crash/evict recovery.
    /// `None` (the default) keeps sessions purely in memory.
    pub durability: Option<DurabilityConfig>,
    /// What happens to a session whose WAL or snapshot I/O fails.
    pub durability_mode: DurabilityMode,
    /// Minimum spacing between re-attach attempts of one degraded session
    /// (the first attempt after degrading is never delayed). Also the
    /// `Retry-After` hint strict-mode 503s carry.
    pub reattach_interval: Duration,
    /// Armed telemetry (metrics + traces). `None` — the default — makes
    /// every instrumentation site a single never-taken branch: no clock
    /// reads, no atomics, no allocation.
    pub telemetry: Option<Arc<Telemetry>>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            memory_budget: None,
            record_deltas: false,
            durability: None,
            durability_mode: DurabilityMode::BestEffort,
            reattach_interval: Duration::from_secs(1),
            telemetry: None,
        }
    }
}

/// Monotone lifetime counters of a registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Sessions created.
    pub creates: usize,
    /// Sessions dropped by request.
    pub drops: usize,
    /// Sessions evicted under the memory budget.
    pub evictions: usize,
    /// Evictions that wrote a final spill snapshot (always `<= evictions`;
    /// equal when durability is on and every victim could be snapshotted).
    pub spills: usize,
    /// Sessions transparently rebuilt from disk (after a spill or a crash).
    pub recoveries: usize,
    /// Cold `explain` runs served.
    pub explains: usize,
    /// Deltas applied (each ticket counts once, coalesced or not).
    pub deltas_applied: usize,
    /// Deltas that piggybacked on another ticket's `re_explain` instead of
    /// paying for their own run.
    pub coalesced_deltas: usize,
    /// Report reads served.
    pub reports: usize,
    /// Lock stripes the session index is split across.
    pub shards: usize,
    /// Contended shard-lock acquisitions (a `try_lock` lost and the
    /// caller had to block) — the sharding effectiveness gauge the bench
    /// lane records.
    pub shard_contention: usize,
    /// Resident sessions currently in the Degraded durability state (a
    /// gauge, not a monotone counter).
    pub degraded_sessions: usize,
    /// WAL appends that failed (each one degrades its session).
    pub wal_errors: usize,
    /// Snapshot / create / quarantine / re-attach I/O failures.
    pub storage_errors: usize,
    /// Degraded sessions successfully re-attached (→ Reconciled).
    pub reattached: usize,
    /// Session directories renamed aside into `quarantine/`.
    pub quarantined: usize,
    /// Retried deltas answered from the dedup window without re-applying.
    pub dedup_hits: usize,
}

/// One registry stat, addressable both as a `GET /sessions` JSON key and
/// as a Prometheus series — the single source of truth both surfaces
/// iterate, so they can never drift apart.
#[derive(Debug, Clone, Copy)]
pub struct StatSample {
    /// The `/sessions` `stats` object key.
    pub key: &'static str,
    /// The `/metrics` series name.
    pub metric: &'static str,
    /// The `# HELP` text.
    pub help: &'static str,
    /// True for point-in-time values (`gauge` type); false for monotone
    /// lifetime counters.
    pub gauge: bool,
    /// The sampled value.
    pub value: u64,
}

impl RegistryStats {
    /// Every stat as a [`StatSample`], in the wire's historical key order.
    pub fn samples(&self) -> [StatSample; 17] {
        let counter = |key, metric, help, value: usize| StatSample {
            key,
            metric,
            help,
            gauge: false,
            value: value as u64,
        };
        let gauge = |key, metric, help, value: usize| StatSample {
            key,
            metric,
            help,
            gauge: true,
            value: value as u64,
        };
        [
            counter("creates", "e3d_registry_creates_total", "Sessions created", self.creates),
            counter("drops", "e3d_registry_drops_total", "Sessions dropped by request", self.drops),
            counter(
                "evictions",
                "e3d_registry_evictions_total",
                "Sessions evicted under the memory budget",
                self.evictions,
            ),
            counter(
                "spills",
                "e3d_registry_spills_total",
                "Evictions that wrote a final spill snapshot",
                self.spills,
            ),
            counter(
                "recoveries",
                "e3d_registry_recoveries_total",
                "Sessions transparently rebuilt from disk",
                self.recoveries,
            ),
            counter(
                "explains",
                "e3d_registry_explains_total",
                "Cold explain runs served",
                self.explains,
            ),
            counter(
                "deltas_applied",
                "e3d_registry_deltas_applied_total",
                "Deltas applied (coalesced or not)",
                self.deltas_applied,
            ),
            counter(
                "coalesced_deltas",
                "e3d_registry_coalesced_deltas_total",
                "Deltas that piggybacked on another ticket's re_explain",
                self.coalesced_deltas,
            ),
            counter("reports", "e3d_registry_reports_total", "Report reads served", self.reports),
            gauge(
                "shards",
                "e3d_registry_shards",
                "Lock stripes the session index is split across",
                self.shards,
            ),
            counter(
                "shard_contention",
                "e3d_registry_shard_contention_total",
                "Contended shard-lock acquisitions",
                self.shard_contention,
            ),
            gauge(
                "degraded_sessions",
                "e3d_registry_degraded_sessions",
                "Resident sessions currently degraded",
                self.degraded_sessions,
            ),
            counter(
                "wal_errors",
                "e3d_registry_wal_errors_total",
                "WAL appends that failed",
                self.wal_errors,
            ),
            counter(
                "storage_errors",
                "e3d_registry_storage_errors_total",
                "Snapshot / create / quarantine / re-attach I/O failures",
                self.storage_errors,
            ),
            counter(
                "reattached",
                "e3d_registry_reattached_total",
                "Degraded sessions successfully re-attached",
                self.reattached,
            ),
            counter(
                "quarantined",
                "e3d_registry_quarantined_total",
                "Session directories renamed aside into quarantine",
                self.quarantined,
            ),
            counter(
                "dedup_hits",
                "e3d_registry_dedup_hits_total",
                "Retried deltas answered from the dedup window",
                self.dedup_hits,
            ),
        ]
    }
}

/// A summary row of [`SessionRegistry::list`].
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session name.
    pub name: String,
    /// Cached memory footprint (bytes) after the session's last run.
    pub footprint: usize,
    /// Whether the session has produced a report yet.
    pub explained: bool,
    /// Deltas appended to the session's WAL (0 when durability is off).
    pub deltas_logged: u64,
}

/// The result of one delta request.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The report after this delta (and any deltas coalesced with it).
    pub report: Arc<ServedReport>,
    /// How many *other* tickets were folded into the run that produced
    /// this report (0 when the delta ran alone).
    pub coalesced_with: usize,
    /// The session's durability state when the outcome was produced
    /// (`"durable"`, `"degraded"`, `"reconciled"`); `None` when the
    /// registry has no durability configured.
    pub durability: Option<&'static str>,
    /// True when the delta's `request_id` was already in the retry window:
    /// the delta was **not** re-applied and `report` is the session's
    /// current report.
    pub deduplicated: bool,
    /// Coarse timing breakdown of serving this delta, captured inside the
    /// session lock and shipped out through the ticket cell so the waiter
    /// can record histograms with **no lock held**. All-zero when
    /// telemetry is off (no clocks were read).
    pub timings: RunTimings,
}

/// Where a served delta's time went, in microseconds. A coalesced batch
/// shares `run_us` (every ticket waited on the same `re_explain`); the
/// WAL numbers are per ticket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunTimings {
    /// The `re_explain` run this ticket's ack waited on.
    pub run_us: u64,
    /// This ticket's WAL record append (the write syscall).
    pub wal_write_us: u64,
    /// This ticket's fsync (zero when the sync policy skipped it).
    pub fsync_us: u64,
}

/// One queued delta and the cell its caller is waiting on.
struct Ticket {
    delta: RelationDelta,
    deadline: Option<Duration>,
    /// Client-generated idempotency key; see the module docs.
    request_id: Option<String>,
    result: Arc<TicketCell>,
}

#[derive(Default)]
struct TicketCell {
    // Named `outcome` (not `state`) deliberately: this mutex is *outside*
    // the registry's ranked lock family (it is always the innermost,
    // held-for-an-instant cell), and the distinct name keeps it out of
    // the lock-order lint's slot-state pattern.
    outcome: Mutex<Option<Result<DeltaOutcome, ServiceError>>>,
    ready: Condvar,
}

impl TicketCell {
    fn take(&self) -> Result<Option<Result<DeltaOutcome, ServiceError>>, ServiceError> {
        Ok(self
            .outcome
            .lock()
            .map_err(|_| ServiceError::Internal("ticket cell poisoned".into()))?
            .take())
    }

    fn fulfill(&self, outcome: Result<DeltaOutcome, ServiceError>) {
        if let Ok(mut cell) = self.outcome.lock() {
            *cell = Some(outcome);
        }
        self.ready.notify_all();
    }

    fn wait_brief(&self) {
        if let Ok(cell) = self.outcome.lock() {
            if cell.is_none() {
                let _ = self.ready.wait_timeout(cell, TICKET_POLL);
            }
        }
    }
}

/// FNV-1a over `bytes` — the shard hash and the shape-token hash. Chosen
/// for determinism across runs (unlike `RandomState`), which keeps shard
/// assignment stable for the contention counters.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The token [`SessionRegistry::shapes`] hands out and
/// [`SessionRegistry::delta`] validates: a hash of both relation
/// shapes. A session re-created with *different* shapes gets a different
/// token, so a delta parsed against the old shapes is refused with a
/// typed conflict instead of being applied to relations it was never
/// parsed for. (Re-creation with *identical* shapes keeps the token —
/// the parse is equally valid against the new incarnation.)
fn shape_token(left: &RelationShape, right: &RelationShape) -> u64 {
    fnv1a(format!("{left:?}|{right:?}").as_bytes())
}

/// The per-session durable attachment: the open WAL, the store handle
/// used for snapshots, and the snapshot cadence counter.
struct DurableState {
    store: SessionStore,
    name: String,
    wal: WalWriter,
    /// Records appended since the last snapshot (snapshot cadence).
    since_snapshot: u64,
    /// The scoped deadline of the session's last run — recovery must
    /// re-run the final explain under the same deterministic node budget.
    last_deadline: Option<Duration>,
    /// True when this attachment was produced by a re-attach after a
    /// degradation (the "Reconciled" state of the durability machine) —
    /// fully durable, labelled differently so clients can see the
    /// degradation happened.
    reconciled: bool,
}

/// A session whose storage failed: still serving from memory, retrying
/// re-attach. The on-disk state is left untouched — it is the durable
/// acked prefix a crash while degraded recovers to.
struct DegradedState {
    store: SessionStore,
    name: String,
    last_deadline: Option<Duration>,
    /// When the last re-attach was attempted (`None` → try immediately).
    last_attempt: Option<Instant>,
}

/// Where a session sits in the Durable → Degraded → Reconciled machine.
enum Attachment {
    /// Registry has no durability configured.
    None,
    /// Fully durable (Durable, or Reconciled after a re-attach).
    Attached(DurableState),
    /// Storage failed; serving from memory while re-attach retries.
    Degraded(DegradedState),
}

/// How many `(request_id, seq)` pairs the retry-dedup window retains per
/// session. A retry arriving after this many *other* deltas is no longer
/// deduplicated — acceptable, since retries follow their original by
/// seconds, not thousands of writes.
const RETRY_WINDOW_CAP: usize = 1024;

/// The per-session exactly-once window: recently applied request ids.
#[derive(Default)]
struct RetryWindow {
    by_id: HashMap<String, u64>,
    order: VecDeque<String>,
}

impl RetryWindow {
    fn contains(&self, id: &str) -> bool {
        self.by_id.contains_key(id)
    }

    fn insert(&mut self, id: String, seq: u64) {
        if self.by_id.insert(id.clone(), seq).is_none() {
            self.order.push_back(id);
            while self.order.len() > RETRY_WINDOW_CAP {
                if let Some(old) = self.order.pop_front() {
                    self.by_id.remove(&old);
                }
            }
        }
    }

    /// Oldest-first pairs for snapshot encoding.
    fn to_pairs(&self) -> Vec<(String, u64)> {
        self.order.iter().map(|id| (id.clone(), self.by_id.get(id).copied().unwrap_or(0))).collect()
    }

    fn from_pairs(pairs: Vec<(String, u64)>) -> RetryWindow {
        let mut window = RetryWindow::default();
        for (id, seq) in pairs {
            window.insert(id, seq);
        }
        window
    }
}

/// What [`SessionState::log_applied`] could promise about one delta.
enum LogOutcome {
    /// On disk (WAL appended under the configured fsync policy).
    Logged,
    /// In memory only: the registry is not durability-configured, or the
    /// session is degraded.
    NotDurable,
    /// This very append failed and degraded the session.
    Failed,
}

/// Lock-free durability health counters (surfaced by `/healthz`).
#[derive(Debug, Default)]
struct DuraCounters {
    wal_errors: AtomicUsize,
    storage_errors: AtomicUsize,
    reattaches: AtomicUsize,
    quarantines: AtomicUsize,
    dedup_hits: AtomicUsize,
}

/// Session state guarded by the per-slot mutex.
struct SessionState {
    session: ExplainSession,
    applied_log: Vec<RelationDelta>,
    /// Deltas applied since creation. Equals the WAL seq while attached;
    /// keeps counting while degraded so the re-attach snapshot and the
    /// retry window stay consistent.
    applied_seq: u64,
    retry_window: RetryWindow,
    durable: Attachment,
}

impl SessionState {
    fn is_degraded(&self) -> bool {
        matches!(self.durable, Attachment::Degraded(_))
    }

    fn durability_label(&self) -> Option<&'static str> {
        match &self.durable {
            Attachment::None => None,
            Attachment::Attached(d) if d.reconciled => Some("reconciled"),
            Attachment::Attached(_) => Some("durable"),
            Attachment::Degraded(_) => Some("degraded"),
        }
    }

    fn durable_name(&self) -> Option<&str> {
        match &self.durable {
            Attachment::Attached(d) => Some(&d.name),
            Attachment::Degraded(d) => Some(&d.name),
            Attachment::None => None,
        }
    }

    /// A snapshot of the current in-memory state (including the retry
    /// window, so recovery still dedupes).
    fn snapshot_image(&self) -> SessionSnapshot {
        let last_deadline = match &self.durable {
            Attachment::Attached(d) => d.last_deadline,
            Attachment::Degraded(d) => d.last_deadline,
            Attachment::None => None,
        };
        SessionSnapshot {
            seq: self.applied_seq,
            explained: self.session.has_explained(),
            last_deadline,
            config: self.session.config().clone(),
            matches: self.session.matches().clone(),
            left: self.session.left().clone(),
            right: self.session.right().clone(),
            retry_window: self.retry_window.to_pairs(),
        }
    }

    /// Appends one applied delta to the WAL. Called after `re_explain`
    /// succeeded and before the ticket is acknowledged. The caller has
    /// already advanced `applied_seq` for this delta.
    fn log_applied(
        &mut self,
        delta: &RelationDelta,
        deadline: Option<Duration>,
        request_id: Option<&str>,
        counters: &DuraCounters,
    ) -> LogOutcome {
        match &mut self.durable {
            Attachment::None => return LogOutcome::NotDurable,
            Attachment::Degraded(d) => {
                d.last_deadline = deadline;
                return LogOutcome::NotDurable;
            }
            Attachment::Attached(d) => {
                d.since_snapshot += 1;
                d.last_deadline = deadline;
                let record = WalRecord {
                    seq: self.applied_seq,
                    deadline,
                    request_id: request_id.map(str::to_string),
                    delta: delta.clone(),
                };
                match d.wal.append(&record) {
                    Ok(()) => return LogOutcome::Logged,
                    Err(e) => {
                        counters.wal_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "explain3d-service: WAL append failed for session {:?} ({e}); \
                             entering degraded mode",
                            d.name
                        );
                    }
                }
            }
        }
        self.degrade();
        LogOutcome::Failed
    }

    /// Durable → Degraded: drop the broken writer and keep serving from
    /// memory. The on-disk state is deliberately left in place — it is
    /// the durable acked prefix, exactly what a crash while degraded
    /// should recover to. It is superseded (atomically overwritten, with
    /// the WAL records it obsoletes skipped by replay) only when a
    /// re-attach succeeds.
    fn degrade(&mut self) {
        let taken = std::mem::replace(&mut self.durable, Attachment::None);
        self.durable = match taken {
            Attachment::Attached(d) => Attachment::Degraded(DegradedState {
                store: d.store,
                name: d.name,
                last_deadline: d.last_deadline,
                last_attempt: None,
            }),
            other => other,
        };
    }

    /// Writes a fresh snapshot and resets the WAL. Returns true on
    /// success; on failure the session degrades (never deleting on-disk
    /// state) and false is returned.
    fn snapshot_now(&mut self, counters: &DuraCounters) -> bool {
        if !matches!(self.durable, Attachment::Attached(_)) {
            return false;
        }
        let snapshot = self.snapshot_image();
        let Attachment::Attached(d) = &mut self.durable else { return false };
        let result = d.store.write_snapshot(&d.name, &snapshot).and_then(|()| Ok(d.wal.reset()?));
        match result {
            Ok(()) => {
                d.since_snapshot = 0;
                return true;
            }
            Err(e) => {
                eprintln!(
                    "explain3d-service: snapshot failed for session {:?} ({e}); \
                     entering degraded mode",
                    d.name
                );
            }
        }
        counters.storage_errors.fetch_add(1, Ordering::Relaxed);
        self.degrade();
        false
    }

    /// The attached WAL writer's last append/fsync durations (zeros when
    /// detached or when timing is off).
    fn last_wal_timings(&self) -> (Duration, Duration) {
        match &self.durable {
            Attachment::Attached(d) => d.wal.last_timings(),
            _ => (Duration::ZERO, Duration::ZERO),
        }
    }

    /// Snapshots if the cadence says so. Returns true when a snapshot was
    /// actually attempted (so callers can time real snapshots only).
    fn maybe_snapshot(&mut self, counters: &DuraCounters) -> bool {
        if let Attachment::Attached(d) = &self.durable {
            if d.since_snapshot >= d.store.config().snapshot_every {
                self.snapshot_now(counters);
                return true;
            }
        }
        false
    }

    /// Degraded → Reconciled: write a fresh snapshot of the current
    /// in-memory state atomically over the stale on-disk image and open a
    /// fresh WAL. Attempts are spaced at least `interval` apart (the
    /// first one after degrading is immediate). Returns true when the
    /// session is attached — already or newly — afterwards.
    fn try_reattach(&mut self, interval: Duration, counters: &DuraCounters, timing: bool) -> bool {
        match &self.durable {
            Attachment::Attached(_) => return true,
            Attachment::None => return false,
            Attachment::Degraded(deg) => {
                if deg.last_attempt.is_some_and(|t| t.elapsed() < interval) {
                    return false;
                }
            }
        }
        let snapshot = self.snapshot_image();
        let attempt = match &mut self.durable {
            Attachment::Degraded(deg) => {
                deg.last_attempt = Some(Instant::now());
                deg.store.reattach(&deg.name, &snapshot)
            }
            _ => return false,
        };
        match attempt {
            Ok(mut wal) => {
                wal.set_timing(timing);
                let taken = std::mem::replace(&mut self.durable, Attachment::None);
                let Attachment::Degraded(deg) = taken else { return false };
                counters.reattaches.fetch_add(1, Ordering::Relaxed);
                self.durable = Attachment::Attached(DurableState {
                    store: deg.store,
                    name: deg.name,
                    wal,
                    since_snapshot: 0,
                    last_deadline: deg.last_deadline,
                    reconciled: true,
                });
                true
            }
            Err(e) => {
                counters.storage_errors.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "explain3d-service: re-attach of degraded session {:?} failed ({e}); \
                     will retry",
                    self.durable_name().unwrap_or("?")
                );
                false
            }
        }
    }
}

struct Slot {
    name: String,
    left_shape: RelationShape,
    right_shape: RelationShape,
    /// Hash of both shapes; see [`shape_token`]. Immutable per slot.
    shape_token: u64,
    state: Mutex<SessionState>,
    pending: Mutex<VecDeque<Ticket>>,
    /// The session's latest report, published under the state lock at
    /// every place a report is produced (explain, recovery, delta runs)
    /// and before any ticket for it is acknowledged. A leaf lock, held
    /// only to clone or swap the `Arc`, so report reads never wait on a
    /// running `explain`/`re_explain`.
    report: Mutex<Option<Arc<ServedReport>>>,
    last_used: AtomicU64,
    footprint: AtomicUsize,
    /// Mirror of the durable `seq` counter, readable without the state
    /// lock (for [`SessionRegistry::list`]).
    deltas_logged: AtomicU64,
    /// Mirror of `session.has_explained()`, readable without the state
    /// lock (for [`SessionRegistry::list`]) — a busy session must not
    /// misreport its explained status.
    explained: AtomicBool,
    /// Mirror of the Degraded durability state, readable without the
    /// state lock — drives the `/healthz` gauge, the re-attach sweep's
    /// candidate scan, and the eviction pre-screen (degraded sessions
    /// have no fresh spill image and are never evicted).
    degraded: AtomicBool,
}

impl Slot {
    /// Publishes `report` as the session's latest. A panic cannot leave
    /// the cell half-written (it only swaps an `Arc`), so a poisoned cell
    /// is still valid.
    fn publish(&self, report: Arc<ServedReport>) {
        let previous = self.report.lock().unwrap_or_else(PoisonError::into_inner).replace(report);
        // The superseded report (and its encoding) is freed here, after
        // the cell's guard is gone.
        drop(previous);
    }

    /// The session's latest published report, if it has one.
    fn published(&self) -> Option<Arc<ServedReport>> {
        self.report.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// True when the slot looks evictable: nobody holds the session lock
    /// and nothing is queued against it. A **poisoned** slot (a panic
    /// escaped a run) counts as idle — it can only ever answer 500s, so it
    /// is dead weight the budget should reclaim, not protect. This is the
    /// victim *pre-screen*; the authoritative re-check happens in
    /// [`SessionRegistry::enforce_budget`] with the pending and state
    /// locks held across the removal.
    fn idle(&self) -> bool {
        let no_pending = self.pending.lock().map(|q| q.is_empty()).unwrap_or(true);
        no_pending
            && match self.state.try_lock() {
                Ok(_) | Err(TryLockError::Poisoned(_)) => true,
                Err(TryLockError::WouldBlock) => false,
            }
    }
}

/// One lock stripe of the session index.
struct Shard {
    slots: RwLock<HashMap<String, Arc<Slot>>>,
    /// Contended acquisitions of this stripe's lock (try-lock lost).
    contention: AtomicUsize,
}

/// A concurrent registry of named explain sessions; see the module docs.
pub struct SessionRegistry {
    shards: [Shard; SHARDS],
    /// Per-name recovery gates: [`SessionStore::recover`] truncates the
    /// WAL to its valid length and opens a writer, so two concurrent
    /// recoveries of the same name could each truncate records the other
    /// already appended and acknowledged. Exactly one thread per name may
    /// touch a session's disk state; entries are removed by their last
    /// holder, so the table never outgrows the set of in-flight recoveries.
    recovering: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    clock: AtomicU64,
    config: ServiceConfig,
    store: Option<SessionStore>,
    creates: AtomicUsize,
    drops: AtomicUsize,
    evictions: AtomicUsize,
    spills: AtomicUsize,
    recoveries: AtomicUsize,
    explains: AtomicUsize,
    deltas_applied: AtomicUsize,
    coalesced_deltas: AtomicUsize,
    reports: AtomicUsize,
    dura: DuraCounters,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new(config: ServiceConfig) -> Self {
        let store = config.durability.clone().map(SessionStore::open);
        SessionRegistry {
            shards: std::array::from_fn(|_| Shard {
                slots: RwLock::new(HashMap::new()),
                contention: AtomicUsize::new(0),
            }),
            recovering: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            config,
            store,
            creates: AtomicUsize::new(0),
            drops: AtomicUsize::new(0),
            evictions: AtomicUsize::new(0),
            spills: AtomicUsize::new(0),
            recoveries: AtomicUsize::new(0),
            explains: AtomicUsize::new(0),
            deltas_applied: AtomicUsize::new(0),
            coalesced_deltas: AtomicUsize::new(0),
            reports: AtomicUsize::new(0),
            dura: DuraCounters::default(),
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            creates: self.creates.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            recoveries: self.recoveries.load(Ordering::Relaxed),
            explains: self.explains.load(Ordering::Relaxed),
            deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
            coalesced_deltas: self.coalesced_deltas.load(Ordering::Relaxed),
            reports: self.reports.load(Ordering::Relaxed),
            shards: SHARDS,
            shard_contention: self
                .shards
                .iter()
                .map(|s| s.contention.load(Ordering::Relaxed))
                .sum(),
            degraded_sessions: self.degraded_sessions(),
            wal_errors: self.dura.wal_errors.load(Ordering::Relaxed),
            storage_errors: self.dura.storage_errors.load(Ordering::Relaxed),
            reattached: self.dura.reattaches.load(Ordering::Relaxed),
            quarantined: self.dura.quarantines.load(Ordering::Relaxed),
            dedup_hits: self.dura.dedup_hits.load(Ordering::Relaxed),
        }
    }

    /// Resident sessions currently degraded — read from the per-slot
    /// atomic mirrors, so this never touches a session lock (the
    /// `/healthz` requirement).
    pub fn degraded_sessions(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .slots
                    .read()
                    .map(|map| map.values().filter(|s| s.degraded.load(Ordering::Relaxed)).count())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// The armed telemetry instance, if any (the HTTP layer uses this for
    /// `/metrics`, tracing, and the slow log).
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.config.telemetry.as_ref()
    }

    /// Names of currently degraded resident sessions, capped at `cap` —
    /// like [`SessionRegistry::degraded_sessions`] this reads only shard
    /// locks and per-slot atomic mirrors, never a session lock, so it is
    /// safe for the `/healthz` probe.
    pub fn degraded_names(&self, cap: usize) -> Vec<String> {
        let mut out = Vec::new();
        for shard in self.shards.iter() {
            if out.len() >= cap {
                break;
            }
            if let Ok(map) = shard.slots.read() {
                for slot in map.values() {
                    if slot.degraded.load(Ordering::Relaxed) {
                        out.push(slot.name.clone());
                        if out.len() >= cap {
                            break;
                        }
                    }
                }
            }
        }
        out.sort();
        out
    }

    /// Test support: runs `f` while the named session's state lock is
    /// held by the calling thread. Lets integration tests pin the
    /// "liveness endpoints never take a session lock" guarantee — a probe
    /// issued from inside `f` deadlocks (times out) if it regresses into
    /// locking session state.
    #[doc(hidden)]
    pub fn with_state_lock_held<R>(
        &self,
        name: &str,
        f: impl FnOnce() -> R,
    ) -> Result<R, ServiceError> {
        let slot = self.slot(name)?;
        let _state = lock_state(&slot)?;
        Ok(f())
    }

    /// Test support: how many delta tickets wait in the named session's
    /// pending queue. Takes no session state lock, so a test can watch
    /// deltas queue behind [`SessionRegistry::with_state_lock_held`].
    #[doc(hidden)]
    pub fn queued_deltas(&self, name: &str) -> Result<usize, ServiceError> {
        let slot = self.slot(name)?;
        let queued = slot
            .pending
            .lock()
            .map_err(|_| ServiceError::Internal("pending queue poisoned".into()))?
            .len();
        Ok(queued)
    }

    /// The lock stripe `name` hashes onto.
    fn shard_of(&self, name: &str) -> &Shard {
        &self.shards[(fnv1a(name.as_bytes()) as usize) % SHARDS]
    }

    fn shard_read<'a>(
        &self,
        shard: &'a Shard,
    ) -> Result<std::sync::RwLockReadGuard<'a, HashMap<String, Arc<Slot>>>, ServiceError> {
        if let Ok(guard) = shard.slots.try_read() {
            return Ok(guard);
        }
        // Contended (or poisoned — the blocking acquisition sorts it out).
        shard.contention.fetch_add(1, Ordering::Relaxed);
        shard.slots.read().map_err(|_| ServiceError::Internal("session shard poisoned".into()))
    }

    fn shard_write<'a>(
        &self,
        shard: &'a Shard,
    ) -> Result<std::sync::RwLockWriteGuard<'a, HashMap<String, Arc<Slot>>>, ServiceError> {
        if let Ok(guard) = shard.slots.try_write() {
            return Ok(guard);
        }
        shard.contention.fetch_add(1, Ordering::Relaxed);
        shard.slots.write().map_err(|_| ServiceError::Internal("session shard poisoned".into()))
    }

    fn slot(&self, name: &str) -> Result<Arc<Slot>, ServiceError> {
        if let Some(slot) = self.shard_read(self.shard_of(name))?.get(name).cloned() {
            return Ok(slot);
        }
        self.recover_slot(name)
    }

    /// True when `slot` is still the slot registered under `name`. A
    /// caller that looked its slot up before an eviction spilled it must
    /// re-route to recovery instead of operating on the removed "zombie"
    /// slot — the zombie's stale WAL writer would race the recovered
    /// slot's writer on the same file (duplicate seq numbers, interleaved
    /// frames), and its snapshots would clobber the live state.
    fn registered(&self, name: &str, slot: &Arc<Slot>) -> Result<bool, ServiceError> {
        Ok(self.shard_read(self.shard_of(name))?.get(name).is_some_and(|s| Arc::ptr_eq(s, slot)))
    }

    /// Transparently rebuilds a non-resident session from disk (the
    /// spill-to-disk / crash-recovery path). [`ServiceError::SessionNotFound`]
    /// when durability is off or the session has no durable state.
    fn recover_slot(&self, name: &str) -> Result<Arc<Slot>, ServiceError> {
        let Some(store) = &self.store else {
            return Err(ServiceError::SessionNotFound(name.to_string()));
        };
        let gate = {
            let mut recovering = self
                .recovering
                .lock()
                .map_err(|_| ServiceError::Internal("recovery table poisoned".into()))?;
            Arc::clone(recovering.entry(name.to_string()).or_default())
        };
        let result = {
            let _guard = match gate.lock() {
                Ok(guard) => guard,
                // A previous recovery panicked mid-explain; the gate
                // carries no data, so recovering again is safe.
                Err(poisoned) => poisoned.into_inner(),
            };
            self.recover_slot_gated(name, store)
        };
        if let Ok(mut recovering) = self.recovering.lock() {
            // Last holder out removes the entry (2 = the table's + ours);
            // any waiter still blocked on the gate keeps the count higher
            // and performs the removal itself when it finishes.
            if Arc::strong_count(&gate) == 2 {
                recovering.remove(name);
            }
        }
        result
    }

    /// The body of [`SessionRegistry::recover_slot`], entered only by the
    /// one thread holding the session's recovery gate.
    fn recover_slot_gated(
        &self,
        name: &str,
        store: &SessionStore,
    ) -> Result<Arc<Slot>, ServiceError> {
        // The winner of a concurrent recovery registered the slot while we
        // waited on the gate — its WAL writer is authoritative.
        if let Some(slot) = self.shard_read(self.shard_of(name))?.get(name).cloned() {
            return Ok(slot);
        }
        let recovered = match store.recover(name) {
            Ok(recovered) => recovered,
            Err(DurabilityError::Corrupt(what)) => {
                // Corrupt durable state is quarantined — renamed aside,
                // never deleted — so the name becomes creatable again and
                // the bytes stay available for forensics.
                eprintln!(
                    "explain3d-service: session {name:?} has corrupt durable state ({what}); \
                     quarantining it"
                );
                match store.quarantine(name) {
                    Ok(Some(_)) => {
                        self.dura.quarantines.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.dura.storage_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("explain3d-service: quarantine of session {name:?} failed: {e}");
                        return Err(ServiceError::Internal(format!(
                            "session {name:?} is corrupt and could not be quarantined"
                        )));
                    }
                }
                return Err(ServiceError::SessionNotFound(name.to_string()));
            }
            Err(DurabilityError::UnsupportedVersion(what)) => {
                // Written by another build: neither corrupt nor ours to
                // rewrite. Refuse the session and leave the files as
                // they are (the name stays taken: `create` still sees
                // them).
                return Err(ServiceError::UnsupportedVersion(format!(
                    "session {name:?} is stored in an unsupported {what}"
                )));
            }
            Err(e @ DurabilityError::Io(_)) => {
                return Err(ServiceError::Internal(format!(
                    "recovery of session {name:?} failed: {e}"
                )));
            }
        };
        let Some((RecoveredSession { mut snapshot, replayed, tail_discarded }, mut wal)) =
            recovered
        else {
            return Err(ServiceError::SessionNotFound(name.to_string()));
        };
        wal.set_timing(self.config.telemetry.is_some());
        if tail_discarded {
            eprintln!(
                "explain3d-service: session {name:?}: discarded a torn WAL tail \
                 (recovered to the last acknowledged delta, seq {})",
                snapshot.seq
            );
        }
        let (seq, explained, last_deadline) =
            (snapshot.seq, snapshot.explained, snapshot.last_deadline);
        let retry_pairs = std::mem::take(&mut snapshot.retry_window);
        let mut session =
            ExplainSession::new(snapshot.left, snapshot.right, snapshot.matches, snapshot.config);
        let last_report = if explained {
            // Re-derive the last served report: byte-identity-to-cold makes
            // one cold explain under the recorded deadline fingerprint-equal
            // to the report the session last acknowledged.
            let report = run_with_deadline(&mut session, last_deadline, ExplainSession::explain);
            Some(Arc::new(ServedReport::new(name, report)))
        } else {
            None
        };
        let footprint = session.memory_footprint();
        let state = SessionState {
            session,
            applied_log: Vec::new(),
            applied_seq: seq,
            retry_window: RetryWindow::from_pairs(retry_pairs),
            durable: Attachment::Attached(DurableState {
                store: store.clone(),
                name: name.to_string(),
                wal,
                since_snapshot: replayed,
                last_deadline,
                reconciled: false,
            }),
        };
        let left_shape = RelationShape::of(state.session.left());
        let right_shape = RelationShape::of(state.session.right());
        let token = shape_token(&left_shape, &right_shape);
        let slot = Arc::new(Slot {
            name: name.to_string(),
            left_shape,
            right_shape,
            shape_token: token,
            state: Mutex::new(state),
            pending: Mutex::new(VecDeque::new()),
            report: Mutex::new(last_report),
            last_used: AtomicU64::new(0),
            footprint: AtomicUsize::new(footprint),
            deltas_logged: AtomicU64::new(seq),
            explained: AtomicBool::new(explained),
            degraded: AtomicBool::new(false),
        });
        self.touch(&slot);
        {
            let mut map = self.shard_write(self.shard_of(name))?;
            // Defensive: the recovery gate means no other thread can have
            // recovered this name, and `create` refuses names with durable
            // state — but a racing insert must still win over this rebuild.
            if let Some(existing) = map.get(name) {
                return Ok(Arc::clone(existing));
            }
            map.insert(name.to_string(), Arc::clone(&slot));
        }
        self.recoveries.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget()?;
        Ok(slot)
    }

    fn touch(&self, slot: &Slot) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        slot.last_used.store(now, Ordering::Relaxed);
    }

    /// Registers a new session. Fails with [`ServiceError::SessionExists`]
    /// when the name is taken.
    pub fn create(&self, name: &str, request: CreateRequest) -> Result<(), ServiceError> {
        if name.is_empty() || name.len() > 128 {
            return Err(ServiceError::BadRequest(
                "session names must be 1..=128 characters".into(),
            ));
        }
        let mut state = SessionState {
            session: ExplainSession::new(
                request.left,
                request.right,
                request.matches,
                request.config,
            ),
            applied_log: Vec::new(),
            applied_seq: 0,
            retry_window: RetryWindow::default(),
            durable: Attachment::None,
        };
        if let Some(store) = &self.store {
            // A spilled (non-resident) session still owns its name.
            if store.contains(name) {
                return Err(ServiceError::SessionExists(name.to_string()));
            }
            let genesis = SessionSnapshot {
                seq: 0,
                explained: false,
                last_deadline: None,
                config: state.session.config().clone(),
                matches: state.session.matches().clone(),
                left: state.session.left().clone(),
                right: state.session.right().clone(),
                retry_window: Vec::new(),
            };
            match store.create_session(name, &genesis) {
                Ok(mut wal) => {
                    wal.set_timing(self.config.telemetry.is_some());
                    state.durable = Attachment::Attached(DurableState {
                        store: store.clone(),
                        name: name.to_string(),
                        wal,
                        since_snapshot: 0,
                        last_deadline: None,
                        reconciled: false,
                    });
                }
                Err(e) => {
                    self.dura.storage_errors.fetch_add(1, Ordering::Relaxed);
                    // Partial residue (a genesis dir with a snapshot but no
                    // WAL, say) would make the name uncreatable forever;
                    // quarantine it aside.
                    match store.quarantine(name) {
                        Ok(Some(_)) => {
                            self.dura.quarantines.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(None) => {}
                        Err(qe) => eprintln!(
                            "explain3d-service: quarantine of session {name:?} failed: {qe}"
                        ),
                    }
                    if self.config.durability_mode == DurabilityMode::Strict {
                        // Strict: a create we cannot make durable is refused
                        // outright — the client retries once storage heals.
                        eprintln!(
                            "explain3d-service: could not create durable state for session \
                             {name:?} ({e}); refusing the create (strict mode)"
                        );
                        return Err(ServiceError::DurabilityUnavailable(name.to_string()));
                    }
                    eprintln!(
                        "explain3d-service: could not create durable state for session \
                         {name:?} ({e}); serving it degraded (best-effort mode)"
                    );
                    state.durable = Attachment::Degraded(DegradedState {
                        store: store.clone(),
                        name: name.to_string(),
                        last_deadline: None,
                        last_attempt: Some(Instant::now()),
                    });
                }
            }
        }
        let created_durable = matches!(state.durable, Attachment::Attached(_));
        let created_degraded = state.is_degraded();
        let left_shape = RelationShape::of(state.session.left());
        let right_shape = RelationShape::of(state.session.right());
        let token = shape_token(&left_shape, &right_shape);
        let slot = Arc::new(Slot {
            name: name.to_string(),
            left_shape,
            right_shape,
            shape_token: token,
            state: Mutex::new(state),
            pending: Mutex::new(VecDeque::new()),
            report: Mutex::new(None),
            last_used: AtomicU64::new(0),
            footprint: AtomicUsize::new(0),
            deltas_logged: AtomicU64::new(0),
            explained: AtomicBool::new(false),
            degraded: AtomicBool::new(created_degraded),
        });
        self.touch(&slot);
        {
            let mut map = self.shard_write(self.shard_of(name))?;
            if map.contains_key(name) {
                // Undo the genesis image written above so the loser of this
                // race can never be recovered over the resident session.
                if created_durable {
                    if let Some(store) = &self.store {
                        let _ = store.remove(name);
                    }
                }
                return Err(ServiceError::SessionExists(name.to_string()));
            }
            map.insert(name.to_string(), slot);
        }
        self.creates.fetch_add(1, Ordering::Relaxed);
        self.enforce_budget()?;
        Ok(())
    }

    /// The wire shapes of a session's two relations (for parsing delta
    /// tuples without locking the session), plus the shape token to pass
    /// to [`SessionRegistry::delta`]: a delta parsed against these shapes
    /// is applied only while the session still *has* these shapes, closing
    /// the lookup/apply race with a concurrent drop + re-create.
    pub fn shapes(&self, name: &str) -> Result<(RelationShape, RelationShape, u64), ServiceError> {
        let slot = self.slot(name)?;
        Ok((slot.left_shape.clone(), slot.right_shape.clone(), slot.shape_token))
    }

    /// Runs a cold `explain` on the named session, returning (and storing)
    /// the report. `deadline` scopes a MILP deadline override to this run.
    ///
    /// When `tctx` is set, `acquire`, `explain_run` (with per-stage
    /// children), and `snapshot` spans land under the given parent. Span
    /// intervals are captured as plain integers while the session lock is
    /// held; every **metric** observation happens after the lock is
    /// released.
    pub fn explain(
        &self,
        name: &str,
        deadline: Option<Duration>,
        mut tctx: Option<TraceCtx<'_>>,
    ) -> Result<Arc<ServedReport>, ServiceError> {
        loop {
            let acquire_start = tctx.as_ref().map(|c| c.trace.now_us());
            let slot = self.slot(name)?;
            let mut state = lock_state(&slot)?;
            // Eviction holds the state lock across the map removal, so
            // holding it ourselves makes this check stable: if the slot
            // was spilled between lookup and lock, re-route to recovery
            // instead of snapshotting over the recovered slot's state.
            if !self.registered(name, &slot)? {
                drop(state);
                continue;
            }
            // A degraded session gets a lazy re-attach try on every
            // request path (rate-limited inside).
            state.try_reattach(
                self.config.reattach_interval,
                &self.dura,
                self.config.telemetry.is_some(),
            );
            if let (Some(c), Some(start)) = (tctx.as_mut(), acquire_start) {
                let now = c.trace.now_us();
                c.trace.record("acquire", c.parent, start, now);
            }
            let run_started = self.config.telemetry.as_ref().map(|_| Instant::now());
            let run_start_us = tctx.as_ref().map(|c| c.trace.now_us());
            let report = run_with_deadline(&mut state.session, deadline, ExplainSession::explain);
            let run_us = run_started.map(|t| t.elapsed().as_micros() as u64);
            if let (Some(c), Some(start)) = (tctx.as_mut(), run_start_us) {
                record_stage_spans(c, "explain_run", start, &report.stats);
            }
            let report = Arc::new(ServedReport::new(name, report));
            slot.publish(Arc::clone(&report));
            // Persist the explained flag (and the deadline this run used) so
            // recovery re-derives this report rather than an unexplained
            // session.
            let attached = match &mut state.durable {
                Attachment::Attached(d) => {
                    d.last_deadline = deadline;
                    true
                }
                Attachment::Degraded(d) => {
                    d.last_deadline = deadline;
                    false
                }
                Attachment::None => false,
            };
            let mut snap_us = None;
            if attached {
                let snap_start_us = tctx.as_ref().map(|c| c.trace.now_us());
                let snap_started = self.config.telemetry.as_ref().map(|_| Instant::now());
                state.snapshot_now(&self.dura);
                snap_us = snap_started.map(|t| t.elapsed().as_micros() as u64);
                if let (Some(c), Some(start)) = (tctx.as_mut(), snap_start_us) {
                    let now = c.trace.now_us();
                    c.trace.record("snapshot", c.parent, start, now);
                }
            }
            slot.footprint.store(state.session.memory_footprint(), Ordering::Relaxed);
            slot.explained.store(state.session.has_explained(), Ordering::Relaxed);
            slot.degraded.store(state.is_degraded(), Ordering::Relaxed);
            drop(state);
            // Metrics are recorded here — after the state lock is gone —
            // so a scrape-heavy deployment never adds tail latency under
            // the per-session lock (and the telemetry lint stays clean).
            if let Some(tel) = &self.config.telemetry {
                if let Some(us) = run_us {
                    tel.explain_run_us.observe(us);
                }
                if let Some(us) = snap_us {
                    tel.snapshot_us.observe(us);
                }
                tel.steals.inc_by(report.stats.steals as u64);
            }
            self.touch(&slot);
            self.explains.fetch_add(1, Ordering::Relaxed);
            self.enforce_budget()?;
            return Ok(report);
        }
    }

    /// Applies a delta (possibly coalesced with concurrently queued ones)
    /// and returns the resulting report. `request.deadline` scopes a MILP
    /// deadline override to the run that applies it.
    ///
    /// - **Shape check.** When `expected_shape` carries the token a prior
    ///   [`SessionRegistry::shapes`] returned, the delta is applied only
    ///   if the session (whatever its incarnation) still has those shapes
    ///   — [`ServiceError::ShapeConflict`] otherwise. The check sits
    ///   inside the slot-acquisition loop, so a drop + re-create racing
    ///   this call either loses (the ticket landed on the old slot, which
    ///   the registration re-check withdraws) or is caught against the
    ///   fresh slot's token.
    /// - **Idempotency.** When `request.request_id` is set and the session
    ///   has already applied a delta under the same id (it is in the retry
    ///   window), the delta is **not** re-applied — the current report is
    ///   returned with [`DeltaOutcome::deduplicated`] set. This is the
    ///   exactly-once retry contract; see the module docs.
    /// - **Tracing.** When `tctx` is set, a `pending_wait` span (enqueue →
    ///   outcome) is recorded under the given parent, with `re_explain` /
    ///   `wal_append` / `fsync` children reconstructed from the outcome's
    ///   [`RunTimings`] (those intervals ran on whichever thread drained
    ///   the queue; they are laid back-to-back ending at the wait end).
    ///   Metric observations happen on this waiter thread with **no lock
    ///   held** — the timings travel out through the ticket cell.
    pub fn delta(
        &self,
        name: &str,
        request: DeltaRequest,
        expected_shape: Option<u64>,
        mut tctx: Option<TraceCtx<'_>>,
    ) -> Result<DeltaOutcome, ServiceError> {
        let DeltaRequest { delta, deadline, request_id } = request;
        let wait_started = self.config.telemetry.as_ref().map(|_| Instant::now());
        let wait_start_us = tctx.as_ref().map(|c| c.trace.now_us());
        let cell = Arc::new(TicketCell::default());
        let mut ticket = Ticket { delta, deadline, request_id, result: Arc::clone(&cell) };
        let slot = loop {
            let slot = self.slot(name)?;
            if expected_shape.is_some_and(|token| token != slot.shape_token) {
                return Err(ServiceError::ShapeConflict(name.to_string()));
            }
            slot.pending
                .lock()
                .map_err(|_| ServiceError::Internal("pending queue poisoned".into()))?
                .push_back(ticket);
            // Eviction may have spilled the slot between lookup and push.
            // It holds the pending lock across the removal, so the push
            // either landed first (non-empty queue: the eviction aborts)
            // or strictly after the removal — in which case no new drain
            // will serve this zombie queue: withdraw the ticket and retry
            // it against the recovered slot. Once this check passes, the
            // pending ticket itself blocks any later eviction.
            if self.registered(name, &slot)? {
                break slot;
            }
            let withdrawn = {
                let mut pending = slot
                    .pending
                    .lock()
                    .map_err(|_| ServiceError::Internal("pending queue poisoned".into()))?;
                let at = pending.iter().position(|t| Arc::ptr_eq(&t.result, &cell));
                at.and_then(|at| pending.remove(at))
            };
            match withdrawn {
                Some(withdrawn) => ticket = withdrawn,
                // A drain still running on the zombie slot took the ticket
                // with its batch; the outcome arrives through the cell.
                None => break slot,
            }
        };
        loop {
            if let Some(outcome) = cell.take()? {
                self.touch(&slot);
                if let Ok(out) = &outcome {
                    if !out.deduplicated {
                        self.deltas_applied.fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Waiter-side recording: this thread holds nothing but its
                // own (already-taken) ticket cell, so observing here is
                // lock-free by construction.
                if let Some(tel) = &self.config.telemetry {
                    if let Some(t) = wait_started {
                        tel.delta_wait_us.observe(t.elapsed().as_micros() as u64);
                    }
                    if let Ok(out) = &outcome {
                        if !out.deduplicated {
                            tel.delta_run_us.observe(out.timings.run_us);
                        }
                        if out.timings.wal_write_us > 0 {
                            tel.wal_append_us.observe(out.timings.wal_write_us);
                        }
                        if out.timings.fsync_us > 0 {
                            tel.fsync_us.observe(out.timings.fsync_us);
                        }
                    }
                }
                if let (Some(c), Some(start)) = (tctx.as_mut(), wait_start_us) {
                    let end = c.trace.now_us();
                    let wait = c.trace.record("pending_wait", c.parent, start, end);
                    if let Ok(out) = &outcome {
                        let t = &out.timings;
                        let width = t.run_us + t.wal_write_us + t.fsync_us;
                        let mut at = end.saturating_sub(width).max(start);
                        for (nm, us) in [
                            ("re_explain", t.run_us),
                            ("wal_append", t.wal_write_us),
                            ("fsync", t.fsync_us),
                        ] {
                            if us > 0 {
                                let stage_end = (at + us).min(end);
                                c.trace.record(nm, wait, at, stage_end);
                                at = stage_end;
                            }
                        }
                    }
                }
                self.enforce_budget()?;
                return outcome;
            }
            let mut snap_us = None;
            match slot.state.try_lock() {
                Ok(mut state) => {
                    // A degraded session gets a lazy re-attach try before
                    // this drain serves anything (rate-limited inside).
                    state.try_reattach(
                        self.config.reattach_interval,
                        &self.dura,
                        self.config.telemetry.is_some(),
                    );
                    let batch: Vec<Ticket> = {
                        let mut pending = slot
                            .pending
                            .lock()
                            .map_err(|_| ServiceError::Internal("pending queue poisoned".into()))?;
                        pending.drain(..).collect()
                    };
                    if batch.is_empty() {
                        // Another drain served our ticket between the queue
                        // check and the lock; the next loop turn returns it.
                        continue;
                    }
                    let ctx = ServeCtx {
                        slot: &slot,
                        record: self.config.record_deltas,
                        mode: self.config.durability_mode,
                        counters: &self.dura,
                        timing: self.config.telemetry.is_some(),
                    };
                    let coalesced = serve_batch(&mut state, batch, &ctx);
                    self.coalesced_deltas.fetch_add(coalesced, Ordering::Relaxed);
                    let snap_started = self.config.telemetry.as_ref().map(|_| Instant::now());
                    if state.maybe_snapshot(&self.dura) {
                        snap_us = snap_started.map(|t| t.elapsed().as_micros() as u64);
                    }
                    if matches!(state.durable, Attachment::Attached(_)) {
                        slot.deltas_logged.store(state.applied_seq, Ordering::Relaxed);
                    }
                    slot.footprint.store(state.session.memory_footprint(), Ordering::Relaxed);
                    slot.explained.store(state.session.has_explained(), Ordering::Relaxed);
                    slot.degraded.store(state.is_degraded(), Ordering::Relaxed);
                }
                Err(TryLockError::WouldBlock) => cell.wait_brief(),
                Err(TryLockError::Poisoned(_)) => {
                    return Err(ServiceError::Internal(format!(
                        "session {name:?} poisoned by an earlier panic"
                    )))
                }
            }
            // The drain arm's state guard is gone; record its snapshot
            // timing (if any) lock-free before the next loop turn.
            if let (Some(tel), Some(us)) = (&self.config.telemetry, snap_us) {
                tel.snapshot_us.observe(us);
            }
        }
    }

    /// The most recent report of a session.
    pub fn report(&self, name: &str) -> Result<Arc<ServedReport>, ServiceError> {
        self.report_labelled(name).map(|(report, _)| report)
    }

    /// [`SessionRegistry::report`] plus the session's durability label
    /// (as [`SessionRegistry::durability_status`] reads it), from one slot
    /// lookup. Never takes the session state lock, so a read does not
    /// wait for a running `explain`/`re_explain`; a session poisoned by an
    /// earlier panic still answers [`ServiceError::Internal`].
    pub fn report_labelled(
        &self,
        name: &str,
    ) -> Result<(Arc<ServedReport>, Option<&'static str>), ServiceError> {
        let slot = self.slot(name)?;
        if slot.state.is_poisoned() {
            return Err(poisoned(&slot));
        }
        let report = slot.published().ok_or_else(|| ServiceError::NoReport(name.to_string()))?;
        self.touch(&slot);
        self.reports.fetch_add(1, Ordering::Relaxed);
        Ok((report, self.durability_label(&slot)))
    }

    /// The session's current durability label for response decoration:
    /// `"durable"` or `"degraded"`, read from the lock-free slot mirror
    /// (`None` when the registry has no durability configured). Delta
    /// outcomes carry the exact label — including `"reconciled"` — from
    /// inside the session lock; this cheap read is for explain/report
    /// responses.
    pub fn durability_status(&self, name: &str) -> Result<Option<&'static str>, ServiceError> {
        if self.store.is_none() {
            return Ok(None);
        }
        let slot = self.slot(name)?;
        Ok(self.durability_label(&slot))
    }

    /// `"durable"` or `"degraded"` from the slot's lock-free mirror; `None`
    /// without durability.
    fn durability_label(&self, slot: &Slot) -> Option<&'static str> {
        self.store.as_ref()?;
        Some(if slot.degraded.load(Ordering::Relaxed) { "degraded" } else { "durable" })
    }

    /// The `Retry-After` hint (seconds, at least 1) a refused write
    /// travels with: the background re-attach cadence, i.e. the earliest
    /// moment a retry could find the session healthy again.
    pub fn retry_after_secs(&self) -> u64 {
        self.config.reattach_interval.as_secs().max(1)
    }

    /// Attempts re-attach on every degraded resident session — the
    /// periodic background sweep (requests also retry lazily on their own
    /// sessions). Busy sessions are skipped; their next drain retries.
    /// Returns how many sessions re-attached.
    pub fn reattach_degraded(&self) -> usize {
        if self.store.is_none() {
            return 0;
        }
        let mut slots: Vec<Arc<Slot>> = Vec::new();
        for shard in self.shards.iter() {
            if let Ok(map) = shard.slots.read() {
                slots.extend(map.values().filter(|s| s.degraded.load(Ordering::Relaxed)).cloned());
            }
        }
        let mut reattached = 0;
        for slot in slots {
            let Ok(mut state) = slot.state.try_lock() else { continue };
            if state.is_degraded()
                && state.try_reattach(
                    self.config.reattach_interval,
                    &self.dura,
                    self.config.telemetry.is_some(),
                )
            {
                reattached += 1;
            }
            slot.degraded.store(state.is_degraded(), Ordering::Relaxed);
        }
        reattached
    }

    /// Drops a session — both its resident slot and any durable state, so
    /// a spilled (non-resident) session can still be dropped by name.
    pub fn drop_session(&self, name: &str) -> Result<(), ServiceError> {
        let resident = self.shard_write(self.shard_of(name))?.remove(name).is_some();
        let durable = match &self.store {
            Some(store) if store.contains(name) => {
                let _ = store.remove(name);
                true
            }
            _ => false,
        };
        if resident || durable {
            self.drops.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            Err(ServiceError::SessionNotFound(name.to_string()))
        }
    }

    /// All resident sessions, sorted by name. Shard locks are taken one
    /// stripe at a time, so the listing is a consistent snapshot per
    /// stripe (not across stripes — adequate for an observability view).
    pub fn list(&self) -> Vec<SessionInfo> {
        let mut out: Vec<SessionInfo> = Vec::new();
        for shard in self.shards.iter() {
            let Ok(map) = shard.slots.read() else { continue };
            out.extend(map.values().map(|slot| SessionInfo {
                name: slot.name.clone(),
                footprint: slot.footprint.load(Ordering::Relaxed),
                // Mirrored atomically on every run — a busy session's lock
                // being held must not make the stat default to anything.
                explained: slot.explained.load(Ordering::Relaxed),
                deltas_logged: slot.deltas_logged.load(Ordering::Relaxed),
            }));
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Summed cached footprints of all resident sessions.
    pub fn total_footprint(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .slots
                    .read()
                    .map(|map| map.values().map(|s| s.footprint.load(Ordering::Relaxed)).sum())
                    .unwrap_or(0usize)
            })
            .sum()
    }

    /// The ordered log of successfully applied deltas of a session
    /// (empty unless [`ServiceConfig::record_deltas`] is set) — the
    /// serial-replay oracle of the equivalence tests.
    pub fn delta_log(&self, name: &str) -> Result<Vec<RelationDelta>, ServiceError> {
        let slot = self.slot(name)?;
        let log = lock_state(&slot)?.applied_log.clone();
        Ok(log)
    }

    /// Snapshots every resident durable session (graceful-drain flush:
    /// recovery then needs no WAL replay at all). Blocks on each session
    /// lock — call only after request intake has stopped. Returns how many
    /// sessions were flushed.
    pub fn flush_all(&self) -> usize {
        let mut slots: Vec<Arc<Slot>> = Vec::new();
        for shard in self.shards.iter() {
            if let Ok(map) = shard.slots.read() {
                slots.extend(map.values().cloned());
            }
        }
        let mut flushed = 0;
        for slot in slots {
            if let Ok(mut state) = slot.state.lock() {
                // Graceful drain: give a degraded session one immediate
                // re-attach try so the flush can still make it durable.
                if state.is_degraded() {
                    state.try_reattach(Duration::ZERO, &self.dura, self.config.telemetry.is_some());
                }
                if matches!(state.durable, Attachment::Attached(_))
                    && state.snapshot_now(&self.dura)
                {
                    flushed += 1;
                }
                slot.degraded.store(state.is_degraded(), Ordering::Relaxed);
            }
        }
        flushed
    }

    /// Evicts least-recently-used idle sessions until the summed footprint
    /// fits the budget. The budget and the LRU order are **global** across
    /// the index shards — sharding stripes the lookup lock, never the
    /// eviction policy, so which session is evicted is identical to the
    /// unsharded registry's choice. The most recently touched session is
    /// never evicted, so the working session of a single-tenant deployment
    /// survives any budget.
    fn enforce_budget(&self) -> Result<(), ServiceError> {
        let Some(budget) = self.config.memory_budget else {
            return Ok(());
        };
        loop {
            // Global scan, one stripe's read lock at a time. Cross-stripe
            // totals are slightly racy; the budget is soft and the loop
            // re-checks after every eviction.
            let mut total = 0usize;
            let mut count = 0usize;
            let mut mru = 0u64;
            let mut candidates: Vec<(String, u64)> = Vec::new();
            for shard in self.shards.iter() {
                let map = self.shard_read(shard)?;
                for slot in map.values() {
                    total += slot.footprint.load(Ordering::Relaxed);
                    count += 1;
                    let used = slot.last_used.load(Ordering::Relaxed);
                    mru = mru.max(used);
                    // Degraded sessions have no fresh spill image —
                    // evicting one would lose applied state — so they are
                    // never victims (authoritatively re-checked below).
                    if slot.idle() && !slot.degraded.load(Ordering::Relaxed) {
                        candidates.push((slot.name.clone(), used));
                    }
                }
            }
            if total <= budget || count <= 1 {
                return Ok(());
            }
            let victim = candidates
                .into_iter()
                .filter(|(_, used)| *used != mru)
                .min_by_key(|(_, used)| *used)
                .map(|(name, _)| name);
            let Some(name) = victim else {
                // Everything is busy or MRU: the budget is soft, try again
                // on the next operation.
                return Ok(());
            };
            let mut map = self.shard_write(self.shard_of(&name))?;
            // Re-check idleness under the write lock so a request that
            // arrived meanwhile keeps its session — and hold the victim's
            // pending *and* state locks across the removal, so a racing
            // `delta` push or `explain` lock lands strictly before this
            // eviction (aborting it) or strictly after the removal (its
            // registration re-check then re-routes to recovery); see
            // [`SessionRegistry::registered`].
            if let Some(slot) = map.get(&name).cloned() {
                let pending = match slot.pending.lock() {
                    Ok(queue) => queue,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if pending.is_empty() {
                    match slot.state.try_lock() {
                        Ok(mut state) => {
                            // Spill: a final snapshot makes the victim
                            // transparently recoverable. A session that is
                            // (or just became) degraded is kept instead —
                            // its mirror excludes it from the next pick, so
                            // the loop still terminates.
                            let can_evict = match &state.durable {
                                Attachment::None => true,
                                Attachment::Degraded(_) => false,
                                Attachment::Attached(_) => {
                                    let spilled = state.snapshot_now(&self.dura);
                                    if spilled {
                                        self.spills.fetch_add(1, Ordering::Relaxed);
                                    }
                                    spilled
                                }
                            };
                            slot.degraded.store(state.is_degraded(), Ordering::Relaxed);
                            if can_evict {
                                map.remove(&name);
                                self.evictions.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(TryLockError::Poisoned(_)) => {
                            // A poisoned slot is evicted without a snapshot —
                            // its WAL already holds every acknowledged delta,
                            // so recovery still rebuilds the acked state (and
                            // heals the poisoning: the rebuilt slot has a
                            // fresh mutex).
                            map.remove(&name);
                            self.evictions.fetch_add(1, Ordering::Relaxed);
                        }
                        // Busy again: keep the session.
                        Err(TryLockError::WouldBlock) => {}
                    }
                }
            }
            drop(map);
        }
    }
}

fn lock_state(slot: &Slot) -> Result<std::sync::MutexGuard<'_, SessionState>, ServiceError> {
    slot.state.lock().map_err(|_| poisoned(slot))
}

fn poisoned(slot: &Slot) -> ServiceError {
    ServiceError::Internal(format!("session {:?} poisoned by an earlier panic", slot.name))
}

/// Runs `f` with a scoped MILP-deadline override (restored afterwards).
fn run_with_deadline<R>(
    session: &mut ExplainSession,
    deadline: Option<Duration>,
    f: impl FnOnce(&mut ExplainSession) -> R,
) -> R {
    match deadline {
        None => f(session),
        Some(d) => {
            let previous = session.set_milp_deadline(Some(d));
            let result = f(session);
            session.set_milp_deadline(previous);
            result
        }
    }
}

/// Records a pipeline run as one span plus per-stage children (candidate
/// → partition → solve → assemble, laid out sequentially from the run
/// start; stage durations come from the report's own
/// [`PipelineStats`]). Zero-width stages are skipped.
fn record_stage_spans(
    c: &mut TraceCtx<'_>,
    name: &'static str,
    start_us: u64,
    stats: &PipelineStats,
) {
    let end_us = c.trace.now_us();
    let run = c.trace.record(name, c.parent, start_us, end_us);
    let mut at = start_us;
    for (stage, time) in [
        ("candidate", stats.candidate_time),
        ("partition", stats.partition_time),
        ("solve", stats.solve_time),
        ("assemble", stats.assemble_time),
    ] {
        let us = time.as_micros() as u64;
        if us == 0 {
            continue;
        }
        let stage_end = (at + us).min(end_us);
        c.trace.record(stage, run, at, stage_end);
        at = stage_end;
    }
}

/// Everything [`serve_batch`]/[`serve_run`] need besides the session
/// state: the slot (whose report cell they publish to), the registry's
/// recording flag, durability mode, and counters.
struct ServeCtx<'a> {
    slot: &'a Slot,
    record: bool,
    mode: DurabilityMode,
    counters: &'a DuraCounters,
    /// Telemetry is armed: capture run/WAL durations into each outcome's
    /// [`RunTimings`]. Off ⇒ no clock reads on the serving thread.
    timing: bool,
}

/// Answers a retried, already-applied delta without re-applying it.
fn fulfill_dedup(state: &SessionState, ticket: Ticket, ctx: &ServeCtx) {
    ctx.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
    // In strict mode a degraded session must not ack even a dedup hit:
    // the original apply is not on disk yet, and a dedup ack is still an
    // ack. The retry after re-attach succeeds (the window is persisted in
    // the re-attach snapshot).
    if ctx.mode == DurabilityMode::Strict && state.is_degraded() {
        let name = state.durable_name().unwrap_or("").to_string();
        ticket.result.fulfill(Err(ServiceError::DurabilityUnavailable(name)));
        return;
    }
    match ctx.slot.published() {
        Some(report) => ticket.result.fulfill(Ok(DeltaOutcome {
            report,
            coalesced_with: 0,
            durability: state.durability_label(),
            deduplicated: true,
            timings: RunTimings::default(),
        })),
        // Unreachable in practice: an entry in the window means a delta
        // was applied, and every applied delta produced a report.
        None => ticket.result.fulfill(Err(ServiceError::Internal(
            "retried delta was applied but no report exists".into(),
        ))),
    }
}

/// Logs one applied ticket (WAL before ack), records its `request_id` in
/// the retry window, and fulfills it according to the durability mode.
/// `state.applied_seq` is advanced here — exactly once per applied delta.
fn finish_applied(
    state: &mut SessionState,
    ticket: Ticket,
    deadline: Option<Duration>,
    coalesced_with: usize,
    report: &Arc<ServedReport>,
    run_us: u64,
    ctx: &ServeCtx,
) {
    state.applied_seq += 1;
    let logged =
        state.log_applied(&ticket.delta, deadline, ticket.request_id.as_deref(), ctx.counters);
    // Timings ship inside the outcome so the *waiter* thread can observe
    // histograms after it takes its cell — never from under this lock.
    let timings = if ctx.timing && matches!(&logged, LogOutcome::Logged) {
        let (write, fsync) = state.last_wal_timings();
        RunTimings {
            run_us,
            wal_write_us: write.as_micros() as u64,
            fsync_us: fsync.as_micros() as u64,
        }
    } else {
        RunTimings { run_us, ..RunTimings::default() }
    };
    if let Some(id) = &ticket.request_id {
        state.retry_window.insert(id.clone(), state.applied_seq);
    }
    let refused = match logged {
        LogOutcome::Logged => false,
        // The delta IS applied in memory either way; strict mode just
        // refuses to ack it (the client retries; the window dedupes).
        LogOutcome::NotDurable | LogOutcome::Failed => {
            ctx.mode == DurabilityMode::Strict && state.is_degraded()
        }
    };
    if refused {
        let name = state.durable_name().unwrap_or("").to_string();
        ticket.result.fulfill(Err(ServiceError::DurabilityUnavailable(name)));
    } else {
        ticket.result.fulfill(Ok(DeltaOutcome {
            report: Arc::clone(report),
            coalesced_with,
            durability: state.durability_label(),
            deduplicated: false,
            timings,
        }));
    }
}

/// Serves a drained batch of tickets, returning how many of them were
/// coalesced into another ticket's run.
///
/// First the exactly-once filter: a ticket whose `request_id` is already
/// in the retry window is answered from the current report without
/// re-applying; a duplicate of a ticket *in this very batch* is deferred
/// until the batch has been served, then answered the same way (its twin
/// applied first — serially, the retry would arrive after the original).
///
/// The fresh tickets are grouped into maximal runs of **consecutive equal
/// deadlines** (in admission order) and each run is served by
/// [`serve_run`]. Coalescing across different deadlines would change
/// semantics: serially, each delta runs under its own deadline-derived
/// node budget, so only same-budget neighbours may share a `re_explain`.
/// The common case — no per-request deadlines — still coalesces the whole
/// batch.
fn serve_batch(state: &mut SessionState, batch: Vec<Ticket>, ctx: &ServeCtx) -> usize {
    let mut fresh: Vec<Ticket> = Vec::new();
    let mut deferred: Vec<Ticket> = Vec::new();
    for ticket in batch {
        match &ticket.request_id {
            Some(id) if state.retry_window.contains(id) => fulfill_dedup(state, ticket, ctx),
            Some(id) if fresh.iter().any(|t| t.request_id.as_deref() == Some(id.as_str())) => {
                deferred.push(ticket)
            }
            _ => fresh.push(ticket),
        }
    }
    let mut runs: Vec<Vec<Ticket>> = Vec::new();
    for ticket in fresh {
        match runs.last_mut() {
            Some(run) if run[0].deadline == ticket.deadline => run.push(ticket),
            _ => runs.push(vec![ticket]),
        }
    }
    let mut coalesced = 0;
    for run in runs {
        coalesced += run.len() - 1;
        serve_run(state, run, ctx);
    }
    for ticket in deferred {
        if ticket.request_id.as_deref().is_some_and(|id| state.retry_window.contains(id)) {
            fulfill_dedup(state, ticket, ctx);
        } else {
            // Its twin failed to apply, so this is not a duplicate of an
            // *applied* delta: serve it on its own for exactly the outcome
            // a serial retry would get.
            serve_run(state, vec![ticket], ctx);
        }
    }
    coalesced
}

/// Serves one same-deadline run of tickets with one `re_explain` (fast
/// path) or an individual replay (fallback when the merged script fails).
/// See the module docs for why both paths are serially equivalent.
fn serve_run(state: &mut SessionState, batch: Vec<Ticket>, ctx: &ServeCtx) {
    // Strict mode refuses work it cannot log *before* applying: when the
    // session is already degraded (this drain's re-attach try failed),
    // answering 503 without mutating memory means the client's retry
    // after re-attach applies fresh — still exactly once.
    if ctx.mode == DurabilityMode::Strict && state.is_degraded() {
        let name = state.durable_name().unwrap_or("").to_string();
        for ticket in batch {
            ticket.result.fulfill(Err(ServiceError::DurabilityUnavailable(name.clone())));
        }
        return;
    }
    let deadline = batch[0].deadline;
    if batch.len() > 1 {
        let merged =
            RelationDelta { ops: batch.iter().flat_map(|t| t.delta.ops.iter().cloned()).collect() };
        let run_started = ctx.timing.then(Instant::now);
        let merged_result =
            run_with_deadline(&mut state.session, deadline, |s| s.re_explain(&merged));
        let run_us = run_started.map_or(0, |t| t.elapsed().as_micros() as u64);
        match merged_result {
            Ok(report) => {
                let report = Arc::new(ServedReport::new(&ctx.slot.name, report));
                ctx.slot.publish(Arc::clone(&report));
                if ctx.record {
                    state.applied_log.extend(batch.iter().map(|t| t.delta.clone()));
                }
                // WAL before ack: log each ticket's delta (replay applies
                // them in order, which is definitionally the merged script)
                // so no acknowledged delta can be lost to a crash.
                let coalesced_with = batch.len() - 1;
                for ticket in batch {
                    finish_applied(state, ticket, deadline, coalesced_with, &report, run_us, ctx);
                }
                return;
            }
            Err(_) => {
                // Some op in the merged script is out of range; the session
                // is untouched (`apply_delta` rolls back). Replay each
                // ticket on its own so every caller gets exactly the
                // outcome serial execution would have produced.
            }
        }
    }
    for ticket in batch {
        if ctx.mode == DurabilityMode::Strict && state.is_degraded() {
            let name = state.durable_name().unwrap_or("").to_string();
            ticket.result.fulfill(Err(ServiceError::DurabilityUnavailable(name)));
            continue;
        }
        let run_started = ctx.timing.then(Instant::now);
        let outcome =
            run_with_deadline(&mut state.session, ticket.deadline, |s| s.re_explain(&ticket.delta));
        let run_us = run_started.map_or(0, |t| t.elapsed().as_micros() as u64);
        match outcome {
            Ok(report) => {
                let report = Arc::new(ServedReport::new(&ctx.slot.name, report));
                ctx.slot.publish(Arc::clone(&report));
                if ctx.record {
                    state.applied_log.push(ticket.delta.clone());
                }
                let ticket_deadline = ticket.deadline;
                finish_applied(state, ticket, ticket_deadline, 0, &report, run_us, ctx);
            }
            Err(e) => ticket.result.fulfill(Err(e.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_core::pipeline::ExplanationReport;
    use explain3d_core::prelude::{AttributeMatches, CanonicalRelation, CanonicalTuple, Side};
    use explain3d_incremental::{report_fingerprint, SessionConfig};
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn canon(name: &str, entries: &[(&str, f64)]) -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: entries
                .iter()
                .enumerate()
                .map(|(i, (k, imp))| CanonicalTuple {
                    id: i,
                    key: vec![Value::str(*k)],
                    impact: *imp,
                    members: vec![i],
                    representative: Row::new(vec![Value::str(*k)]),
                })
                .collect(),
            aggregate: None,
        }
    }

    fn tuple(key: &str, impact: f64) -> CanonicalTuple {
        CanonicalTuple {
            id: 0,
            key: vec![Value::str(key)],
            impact,
            members: vec![],
            representative: Row::new(vec![Value::str(key)]),
        }
    }

    fn request(left: &[(&str, f64)], right: &[(&str, f64)]) -> CreateRequest {
        CreateRequest {
            left: canon("Q1", left),
            right: canon("Q2", right),
            matches: AttributeMatches::single_equivalent("k", "k"),
            config: SessionConfig::default(),
        }
    }

    fn fingerprint(report: &ExplanationReport) -> Vec<u8> {
        report_fingerprint(report)
    }

    #[test]
    fn lifecycle_create_explain_delta_report_drop() {
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry.create("s1", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        assert!(matches!(
            registry.create("s1", request(&[], &[])),
            Err(ServiceError::SessionExists(_))
        ));
        assert!(matches!(registry.report("s1"), Err(ServiceError::NoReport(_))));
        let first = registry.explain("s1", None, None).unwrap();
        assert!(first.complete);
        let outcome = registry
            .delta(
                "s1",
                RelationDelta::new().insert(Side::Right, tuple("b", 2.0)).into(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(outcome.coalesced_with, 0);
        let stored = registry.report("s1").unwrap();
        assert_eq!(fingerprint(&outcome.report), fingerprint(&stored));
        registry.drop_session("s1").unwrap();
        assert!(matches!(registry.report("s1"), Err(ServiceError::SessionNotFound(_))));
        let stats = registry.stats();
        assert_eq!(
            (stats.creates, stats.explains, stats.deltas_applied, stats.drops),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn coalesced_batch_equals_serial_execution() {
        // Serve a 3-ticket batch directly through `serve_batch` (the drain
        // path), then replay the same deltas one at a time on a second
        // registry; the final fingerprints must agree.
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry
            .create("s", request(&[("a", 1.0), ("b", 2.0), ("c", 1.0)], &[("a", 1.0)]))
            .unwrap();
        registry.explain("s", None, None).unwrap();
        let deltas = [
            RelationDelta::new().insert(Side::Right, tuple("b", 1.0)),
            RelationDelta::new().update(Side::Right, 0, tuple("a", 2.0)),
            RelationDelta::new().delete(Side::Left, 2),
        ];
        let slot = registry.slot("s").unwrap();
        let cells: Vec<Arc<TicketCell>> = (0..3).map(|_| Arc::new(TicketCell::default())).collect();
        {
            let mut state = lock_state(&slot).unwrap();
            let batch: Vec<Ticket> = deltas
                .iter()
                .zip(&cells)
                .map(|(d, c)| Ticket {
                    delta: d.clone(),
                    deadline: None,
                    request_id: None,
                    result: Arc::clone(c),
                })
                .collect();
            let counters = DuraCounters::default();
            let ctx = ServeCtx {
                slot: &slot,
                record: false,
                mode: DurabilityMode::BestEffort,
                counters: &counters,
                timing: false,
            };
            serve_batch(&mut state, batch, &ctx);
        }
        let outcomes: Vec<DeltaOutcome> =
            cells.iter().map(|c| c.take().unwrap().unwrap().unwrap()).collect();
        for o in &outcomes {
            assert_eq!(o.coalesced_with, 2);
            assert_eq!(fingerprint(&o.report), fingerprint(&outcomes[0].report));
        }

        let serial = SessionRegistry::new(ServiceConfig::default());
        serial.create("s", request(&[("a", 1.0), ("b", 2.0), ("c", 1.0)], &[("a", 1.0)])).unwrap();
        serial.explain("s", None, None).unwrap();
        let mut last = None;
        for d in &deltas {
            last = Some(serial.delta("s", d.clone().into(), None, None).unwrap());
        }
        assert_eq!(
            fingerprint(&outcomes[0].report),
            fingerprint(&last.unwrap().report),
            "coalesced batch diverged from serial replay"
        );
    }

    #[test]
    fn failed_merge_replays_individually() {
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry.create("s", request(&[("a", 1.0), ("b", 1.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        let good = RelationDelta::new().insert(Side::Right, tuple("b", 1.0));
        let bad = RelationDelta::new().delete(Side::Left, 99);
        let slot = registry.slot("s").unwrap();
        let cells: Vec<Arc<TicketCell>> = (0..2).map(|_| Arc::new(TicketCell::default())).collect();
        {
            let mut state = lock_state(&slot).unwrap();
            let batch = vec![
                Ticket {
                    delta: good.clone(),
                    deadline: None,
                    request_id: None,
                    result: Arc::clone(&cells[0]),
                },
                Ticket {
                    delta: bad,
                    deadline: None,
                    request_id: None,
                    result: Arc::clone(&cells[1]),
                },
            ];
            let counters = DuraCounters::default();
            let ctx = ServeCtx {
                slot: &slot,
                record: false,
                mode: DurabilityMode::BestEffort,
                counters: &counters,
                timing: false,
            };
            serve_batch(&mut state, batch, &ctx);
        }
        let good_outcome = cells[0].take().unwrap().unwrap().unwrap();
        assert_eq!(good_outcome.coalesced_with, 0, "fallback runs tickets alone");
        let bad_outcome = cells[1].take().unwrap().unwrap();
        assert!(matches!(bad_outcome, Err(ServiceError::Delta(_))));

        // Final state equals serial: good applied, bad rejected.
        let serial = SessionRegistry::new(ServiceConfig::default());
        serial.create("s", request(&[("a", 1.0), ("b", 1.0)], &[("a", 1.0)])).unwrap();
        serial.explain("s", None, None).unwrap();
        let serial_outcome = serial.delta("s", good.into(), None, None).unwrap();
        assert_eq!(
            fingerprint(&registry.report("s").unwrap()),
            fingerprint(&serial_outcome.report)
        );
    }

    #[test]
    fn eviction_prefers_lru_and_spares_the_mru() {
        // Measure one explained session's footprint, then budget for two
        // and a half of them: the third explain must evict exactly the LRU.
        let probe = SessionRegistry::new(ServiceConfig::default());
        probe.create("p", request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
        probe.explain("p", None, None).unwrap();
        let per_session = probe.total_footprint();
        assert!(per_session > 0);

        let registry = SessionRegistry::new(ServiceConfig {
            memory_budget: Some(per_session * 5 / 2),
            ..ServiceConfig::default()
        });
        for name in ["a", "b", "c"] {
            registry.create(name, request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
            registry.explain(name, None, None).unwrap();
        }
        let names: Vec<String> = registry.list().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "c"], "LRU \"a\" must be evicted");
        assert_eq!(registry.stats().evictions, 1);
        // The evicted session answers NotFound; re-creating round-trips to
        // the same fingerprint as the survivor sessions' creation path.
        assert!(matches!(registry.explain("a", None, None), Err(ServiceError::SessionNotFound(_))));
        registry.create("a", request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
        let recreated = registry.explain("a", None, None).unwrap();
        // That explain re-enforced the budget, evicting the next LRU ("b");
        // "c" survives alongside the re-created "a" and their identical
        // relations produce identical fingerprints.
        let reference = registry.report("c").unwrap();
        assert_eq!(fingerprint(&recreated), fingerprint(&reference));
    }

    #[test]
    fn delta_log_records_applied_order() {
        let registry =
            SessionRegistry::new(ServiceConfig { record_deltas: true, ..ServiceConfig::default() });
        registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        registry
            .delta("s", RelationDelta::new().insert(Side::Left, tuple("b", 1.0)).into(), None, None)
            .unwrap();
        let err = registry
            .delta("s", RelationDelta::new().delete(Side::Left, 9).into(), None, None)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Delta(_)));
        registry.delta("s", RelationDelta::new().delete(Side::Left, 1).into(), None, None).unwrap();
        let log = registry.delta_log("s").unwrap();
        assert_eq!(log.len(), 2, "failed deltas are not logged");
        assert_eq!(log[0].ops.len(), 1);
    }

    #[test]
    fn empty_relations_and_drain_to_empty_never_panic() {
        // Wire-reachable degenerate inputs: sessions may legitimately be
        // created empty, be drained to empty by deltas, and grow back.
        // Every step must answer with a report or a typed error — never a
        // worker panic.
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry.create("e", request(&[], &[])).unwrap();
        let report = registry.explain("e", None, None).unwrap();
        assert!(report.complete);
        assert!(report.explanations.is_empty());
        // Grow from empty…
        let grown = registry
            .delta(
                "e",
                RelationDelta::new()
                    .insert(Side::Left, tuple("a", 1.0))
                    .insert(Side::Right, tuple("a", 1.0))
                    .into(),
                None,
                None,
            )
            .unwrap();
        assert!(grown.report.complete);
        // …drain back to empty…
        let drained = registry
            .delta(
                "e",
                RelationDelta::new().delete(Side::Left, 0).delete(Side::Right, 0).into(),
                None,
                None,
            )
            .unwrap();
        assert!(drained.report.complete);
        assert!(drained.report.explanations.is_empty());
        // …and deltas against the empty state still type their errors.
        let err = registry
            .delta("e", RelationDelta::new().delete(Side::Left, 0).into(), None, None)
            .unwrap_err();
        assert!(matches!(err, ServiceError::Delta(_)));
        // One-sided emptiness explains everything on the populated side.
        registry.create("one", request(&[("a", 1.0), ("b", 1.0)], &[])).unwrap();
        let one = registry.explain("one", None, None).unwrap();
        assert!(one.complete);
        assert_eq!(one.explanations.len(), 2);
    }

    fn durable_config(tag: &str) -> (std::path::PathBuf, ServiceConfig) {
        let dir = std::env::temp_dir().join(format!("e3d-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            durability: Some(DurabilityConfig::new(&dir)),
            ..ServiceConfig::default()
        };
        (dir, config)
    }

    #[test]
    fn spill_then_transparent_recovery_is_fingerprint_identical() {
        // Budget for ~2.5 sessions, durability on: the eviction of "a" must
        // spill it, and the next request naming "a" must recover it with
        // the exact report it last served.
        let probe = SessionRegistry::new(ServiceConfig::default());
        probe.create("p", request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
        probe.explain("p", None, None).unwrap();
        let per_session = probe.total_footprint();

        let (dir, mut config) = durable_config("spill");
        config.memory_budget = Some(per_session * 5 / 2);
        let registry = SessionRegistry::new(config);
        for name in ["a", "b", "c"] {
            registry.create(name, request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
            registry.explain(name, None, None).unwrap();
        }
        let expected = fingerprint(&registry.report("c").unwrap());
        let resident: Vec<String> = registry.list().into_iter().map(|s| s.name).collect();
        assert_eq!(resident, vec!["b", "c"], "LRU \"a\" must be evicted");
        assert_eq!(registry.stats().spills, 1);
        // Transparent recovery: "a" answers again, with the same report
        // the identical sessions "b"/"c" hold.
        let recovered = registry.report("a").unwrap();
        assert_eq!(fingerprint(&recovered), expected);
        assert_eq!(registry.stats().recoveries, 1);
        // Re-creating a spilled name conflicts rather than shadowing it.
        let (_, config2) = {
            let c = ServiceConfig {
                durability: Some(DurabilityConfig::new(&dir)),
                ..ServiceConfig::default()
            };
            (dir.clone(), c)
        };
        let fresh = SessionRegistry::new(config2);
        assert!(matches!(
            fresh.create("a", request(&[("x", 1.0)], &[])),
            Err(ServiceError::SessionExists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_after_deltas_replays_the_wal_suffix() {
        let (dir, config) = durable_config("replay");
        let deltas = [
            RelationDelta::new().insert(Side::Right, tuple("b", 2.0)),
            RelationDelta::new().update(Side::Right, 0, tuple("a", 2.0)),
            RelationDelta::new().delete(Side::Left, 1),
        ];
        let expected = {
            let registry = SessionRegistry::new(config.clone());
            registry
                .create("s", request(&[("a", 1.0), ("b", 2.0), ("c", 1.0)], &[("a", 1.0)]))
                .unwrap();
            registry.explain("s", None, None).unwrap();
            let mut last = None;
            for d in &deltas {
                last = Some(registry.delta("s", d.clone().into(), None, None).unwrap().report);
            }
            assert_eq!(
                registry.list().iter().find(|s| s.name == "s").unwrap().deltas_logged,
                3,
                "every applied delta must be logged"
            );
            fingerprint(&last.unwrap())
            // Registry dropped without any flush — recovery must work off
            // the genesis/explain snapshot plus the WAL alone.
        };
        let recovered = SessionRegistry::new(config);
        assert_eq!(fingerprint(&recovered.report("s").unwrap()), expected);
        assert_eq!(recovered.stats().recoveries, 1);
        // The recovered session keeps serving (and logging) deltas.
        recovered
            .delta("s", RelationDelta::new().insert(Side::Left, tuple("d", 1.0)).into(), None, None)
            .unwrap();
        assert_eq!(recovered.list().iter().find(|s| s.name == "s").unwrap().deltas_logged, 4);
        // Dropping a durable session removes its disk state too.
        recovered.drop_session("s").unwrap();
        assert!(matches!(recovered.report("s"), Err(ServiceError::SessionNotFound(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_of_spilled_session_removes_disk_state() {
        let (dir, config) = durable_config("dropspill");
        {
            let registry = SessionRegistry::new(config.clone());
            registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
            registry.explain("s", None, None).unwrap();
        }
        // Non-resident ("spilled" across process lifetimes): drop by name.
        let registry = SessionRegistry::new(config);
        registry.drop_session("s").unwrap();
        assert!(matches!(registry.report("s"), Err(ServiceError::SessionNotFound(_))));
        assert!(matches!(registry.drop_session("s"), Err(ServiceError::SessionNotFound(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_shape_token_is_a_typed_conflict() {
        // The delta TOCTOU regression: shapes read, session dropped and
        // re-created with different relations, delta applied — the stale
        // token must be refused, never applied to shapes it wasn't parsed
        // against.
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        let (_, _, token) = registry.shapes("s").unwrap();
        // Same incarnation: the token validates and the delta applies.
        registry
            .delta(
                "s",
                RelationDelta::new().insert(Side::Right, tuple("b", 1.0)).into(),
                Some(token),
                None,
            )
            .unwrap();
        // Re-create with a different schema.
        registry.drop_session("s").unwrap();
        let mut alt_left = canon("Q1", &[("a", 1.0)]);
        alt_left.schema = Schema::from_pairs(&[("kk", ValueType::Str)]);
        alt_left.key_attrs = vec!["kk".to_string()];
        let mut alt_right = canon("Q2", &[("a", 1.0)]);
        alt_right.schema = Schema::from_pairs(&[("kk", ValueType::Str)]);
        alt_right.key_attrs = vec!["kk".to_string()];
        registry
            .create(
                "s",
                CreateRequest {
                    left: alt_left,
                    right: alt_right,
                    matches: AttributeMatches::single_equivalent("kk", "kk"),
                    config: SessionConfig::default(),
                },
            )
            .unwrap();
        registry.explain("s", None, None).unwrap();
        let stale = registry.delta(
            "s",
            RelationDelta::new().insert(Side::Right, tuple("c", 1.0)).into(),
            Some(token),
            None,
        );
        assert!(matches!(stale, Err(ServiceError::ShapeConflict(_))), "got {stale:?}");
        assert_eq!(ServiceError::ShapeConflict("s".into()).http_status().0, 409);
        // An untagged delta (no token) still applies — validation is
        // opt-in, and the fresh token round-trips.
        let (_, _, fresh) = registry.shapes("s").unwrap();
        assert_ne!(fresh, token, "different shapes must produce a different token");
        registry
            .delta(
                "s",
                RelationDelta::new().insert(Side::Right, tuple("c", 1.0)).into(),
                Some(fresh),
                None,
            )
            .unwrap();
    }

    /// Polls until `count` delta tickets are queued on `name`.
    fn await_queued(registry: &SessionRegistry, name: &str, count: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while registry.queued_deltas(name).unwrap() < count {
            assert!(Instant::now() < deadline, "{count} deltas never queued on {name:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn deltas_queued_behind_a_held_lock_share_one_run() {
        const N: usize = 4;
        let registry = Arc::new(SessionRegistry::new(ServiceConfig::default()));
        registry.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        // While this thread holds the session lock, every delta queues;
        // the first drain after the release serves all of them at once.
        let handles = registry
            .with_state_lock_held("s", || {
                let handles: Vec<_> = (0..N)
                    .map(|i| {
                        let registry = Arc::clone(&registry);
                        std::thread::spawn(move || {
                            registry.delta(
                                "s",
                                RelationDelta::new()
                                    .insert(Side::Right, tuple(&format!("t{i}"), 1.0))
                                    .into(),
                                None,
                                None,
                            )
                        })
                    })
                    .collect();
                await_queued(&registry, "s", N);
                handles
            })
            .unwrap();
        let outcomes: Vec<DeltaOutcome> =
            handles.into_iter().map(|h| h.join().unwrap().unwrap()).collect();
        let stats = registry.stats();
        assert_eq!(stats.deltas_applied, N);
        assert_eq!(stats.coalesced_deltas, N - 1, "one run must serve every queued delta");
        let current = registry.report("s").unwrap();
        for outcome in &outcomes {
            assert_eq!(outcome.coalesced_with, N - 1);
            assert!(Arc::ptr_eq(&outcome.report, &current), "every waiter gets the batch's report");
        }
    }

    #[test]
    fn sharded_index_keeps_eviction_global() {
        // Sessions hashing to different stripes: the LRU choice must
        // still be the global one (the unsharded registry's choice), and
        // the budget must apply to the global total.
        let probe = SessionRegistry::new(ServiceConfig::default());
        probe.create("p", request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
        probe.explain("p", None, None).unwrap();
        let per_session = probe.total_footprint();

        let registry = SessionRegistry::new(ServiceConfig {
            memory_budget: Some(per_session * 5 / 2),
            ..ServiceConfig::default()
        });
        assert_eq!(registry.stats().shards, SHARDS);
        let names = ["a", "b", "c"];
        let stripes: std::collections::HashSet<usize> =
            names.iter().map(|n| fnv1a(n.as_bytes()) as usize % SHARDS).collect();
        assert!(stripes.len() >= 2, "the sessions must span stripes: {stripes:?}");
        for name in names {
            registry.create(name, request(&[("x", 1.0), ("y", 2.0)], &[("x", 1.0)])).unwrap();
            registry.explain(name, None, None).unwrap();
        }
        let names: Vec<String> = registry.list().into_iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "c"], "globally-LRU \"a\" must be evicted across shards");
        assert_eq!(registry.stats().evictions, 1);
    }

    fn faulty_durable_config(
        tag: &str,
        plan: explain3d_durability::FaultPlan,
    ) -> (std::path::PathBuf, ServiceConfig, Arc<explain3d_durability::FaultInjector>) {
        let dir = std::env::temp_dir().join(format!("e3d-reg-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let shim = explain3d_durability::FaultInjector::new(plan);
        shim.disarm();
        let mut durability = DurabilityConfig::new(&dir);
        durability.shim = Some(Arc::clone(&shim));
        let config = ServiceConfig {
            durability: Some(durability),
            reattach_interval: Duration::ZERO,
            ..ServiceConfig::default()
        };
        (dir, config, shim)
    }

    /// Every storage write fails with EIO while the injector is armed.
    fn wal_killer() -> explain3d_durability::FaultPlan {
        use explain3d_durability::{FaultKind, FaultOp, FaultRule, Trigger};
        explain3d_durability::FaultPlan {
            seed: 7,
            rules: vec![FaultRule {
                op: FaultOp::Write,
                trigger: Trigger::EveryNth(1),
                kind: FaultKind::Eio,
            }],
        }
    }

    #[test]
    fn wal_failure_degrades_then_reattaches_best_effort() {
        let (dir, config, shim) = faulty_durable_config("degrade", wal_killer());
        let registry = SessionRegistry::new(config.clone());
        registry.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        shim.arm();
        // The WAL append fails, but best-effort keeps serving — labelled.
        let degraded = registry
            .delta(
                "s",
                RelationDelta::new().insert(Side::Right, tuple("b", 2.0)).into(),
                None,
                None,
            )
            .unwrap();
        assert_eq!(degraded.durability, Some("degraded"));
        let stats = registry.stats();
        assert_eq!((stats.wal_errors, stats.degraded_sessions), (1, 1));
        assert_eq!(registry.durability_status("s").unwrap(), Some("degraded"));
        shim.disarm();
        // The next drain re-attaches (fresh snapshot of the in-memory
        // state over the stale image), then logs normally.
        let healed = registry
            .delta("s", RelationDelta::new().insert(Side::Left, tuple("c", 1.0)).into(), None, None)
            .unwrap();
        assert_eq!(healed.durability, Some("reconciled"));
        let stats = registry.stats();
        assert_eq!((stats.reattached, stats.degraded_sessions), (1, 0));
        let expected = fingerprint(&registry.report("s").unwrap());
        drop(registry);
        // Restart: the re-attach snapshot + fresh WAL recover everything,
        // including the delta applied while degraded.
        let recovered = SessionRegistry::new(config);
        assert_eq!(fingerprint(&recovered.report("s").unwrap()), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_mode_refuses_unlogged_writes_and_retries_exactly_once() {
        let (dir, mut config, shim) = faulty_durable_config("strict", wal_killer());
        config.durability_mode = DurabilityMode::Strict;
        config.record_deltas = true;
        let registry = SessionRegistry::new(config.clone());
        registry.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        shim.arm();
        let delta = RelationDelta::new().insert(Side::Right, tuple("b", 2.0));
        let retry =
            DeltaRequest { delta: delta.clone(), deadline: None, request_id: Some("req-1".into()) };
        let refused = registry.delta("s", retry.clone(), None, None).unwrap_err();
        assert!(matches!(refused, ServiceError::DurabilityUnavailable(_)), "got {refused:?}");
        assert_eq!(refused.http_status().0, 503);
        // Still degraded (re-attach keeps failing): the retry is refused
        // too — an ack, even a dedup ack, would promise durability strict
        // mode cannot give yet.
        let still = registry.delta("s", retry.clone(), None, None).unwrap_err();
        assert!(matches!(still, ServiceError::DurabilityUnavailable(_)), "got {still:?}");
        shim.disarm();
        // Storage healed: re-attach succeeds and the retry is answered
        // from the dedup window — applied exactly once.
        let acked = registry.delta("s", retry.clone(), None, None).unwrap();
        assert!(acked.deduplicated, "retry must not re-apply");
        assert_eq!(acked.durability, Some("reconciled"));
        assert_eq!(registry.delta_log("s").unwrap().len(), 1, "applied exactly once");
        assert_eq!(registry.stats().dedup_hits, 2);
        // Fingerprint pinned to serial execution of a single apply.
        let oracle = SessionRegistry::new(ServiceConfig::default());
        oracle.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        oracle.explain("s", None, None).unwrap();
        let serial = oracle.delta("s", delta.into(), None, None).unwrap();
        assert_eq!(fingerprint(&acked.report), fingerprint(&serial.report));
        // Restart: the retry window survives recovery (it is in the
        // re-attach snapshot), so the same request_id still dedupes.
        drop(registry);
        let recovered = SessionRegistry::new(config);
        let replayed = recovered.delta("s", retry, None, None).unwrap();
        assert!(replayed.deduplicated, "window must survive recovery");
        assert_eq!(fingerprint(&replayed.report), fingerprint(&serial.report));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_durable_state_is_quarantined_not_deleted() {
        let (dir, config) = durable_config("quarantine");
        {
            let registry = SessionRegistry::new(config.clone());
            registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
            registry.explain("s", None, None).unwrap();
        }
        let sdir = dir.join(explain3d_durability::session_dirname("s"));
        std::fs::write(sdir.join(explain3d_durability::SNAPSHOT_FILE), b"garbage").unwrap();
        let registry = SessionRegistry::new(config);
        // Corrupt state answers NotFound (quarantined), never a 500 loop.
        assert!(matches!(registry.report("s"), Err(ServiceError::SessionNotFound(_))));
        assert_eq!(registry.stats().quarantined, 1);
        // The bytes were renamed aside, not deleted…
        let quarantined: Vec<_> = dir
            .join(explain3d_durability::QUARANTINE_DIR)
            .read_dir()
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(quarantined.len(), 1);
        assert!(!sdir.exists());
        // …and the name is creatable again.
        registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Writes an explained durable session with one logged delta, then
    /// rewrites the version byte of `file`'s magic to `'9'`: the state a
    /// newer build would leave behind. Returns the file's new bytes.
    fn bump_format_version(dir: &std::path::Path, config: &ServiceConfig, file: &str) -> Vec<u8> {
        {
            let registry = SessionRegistry::new(config.clone());
            registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])).unwrap();
            registry.explain("s", None, None).unwrap();
            registry
                .delta(
                    "s",
                    RelationDelta::new().insert(Side::Right, tuple("b", 1.0)).into(),
                    None,
                    None,
                )
                .unwrap();
        }
        let path = dir.join(explain3d_durability::session_dirname("s")).join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = b'9';
        std::fs::write(&path, &bytes).unwrap();
        bytes
    }

    /// Recovery of a session whose `file` carries another format version
    /// refuses it with a typed error and leaves both files untouched.
    fn assert_unsupported_version_is_refused_in_place(tag: &str, file: &str) {
        let (dir, config) = durable_config(tag);
        let bumped = bump_format_version(&dir, &config, file);
        let sdir = dir.join(explain3d_durability::session_dirname("s"));
        let other = if file == explain3d_durability::SNAPSHOT_FILE {
            explain3d_durability::WAL_FILE
        } else {
            explain3d_durability::SNAPSHOT_FILE
        };
        let other_bytes = std::fs::read(sdir.join(other)).unwrap();
        let registry = SessionRegistry::new(config);
        for _ in 0..2 {
            let err = registry.report("s").unwrap_err();
            assert!(matches!(err, ServiceError::UnsupportedVersion(_)), "got {err:?}");
            assert_eq!(err.code(), "unsupported_version");
            assert!(err.to_string().contains("E3D"), "names the version found: {err}");
        }
        // Neither quarantined nor recreated: both files are byte-for-byte
        // what the other build wrote, and the name is still taken.
        assert_eq!(registry.stats().quarantined, 0);
        assert_eq!(std::fs::read(sdir.join(file)).unwrap(), bumped);
        assert_eq!(std::fs::read(sdir.join(other)).unwrap(), other_bytes);
        assert!(matches!(
            registry.create("s", request(&[("a", 1.0)], &[("a", 1.0)])),
            Err(ServiceError::SessionExists(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_of_another_format_version_is_refused_not_quarantined() {
        assert_unsupported_version_is_refused_in_place(
            "snapver",
            explain3d_durability::SNAPSHOT_FILE,
        );
    }

    #[test]
    fn wal_of_another_format_version_is_refused_not_recreated() {
        assert_unsupported_version_is_refused_in_place("walver", explain3d_durability::WAL_FILE);
    }

    #[test]
    fn duplicate_request_ids_in_one_batch_apply_once() {
        let registry =
            SessionRegistry::new(ServiceConfig { record_deltas: true, ..ServiceConfig::default() });
        registry.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        registry.explain("s", None, None).unwrap();
        let delta = RelationDelta::new().insert(Side::Right, tuple("b", 2.0));
        let slot = registry.slot("s").unwrap();
        let cells: Vec<Arc<TicketCell>> = (0..2).map(|_| Arc::new(TicketCell::default())).collect();
        {
            let mut state = lock_state(&slot).unwrap();
            let batch = vec![
                Ticket {
                    delta: delta.clone(),
                    deadline: None,
                    request_id: Some("r".into()),
                    result: Arc::clone(&cells[0]),
                },
                Ticket {
                    delta: delta.clone(),
                    deadline: None,
                    request_id: Some("r".into()),
                    result: Arc::clone(&cells[1]),
                },
            ];
            let counters = DuraCounters::default();
            let ctx = ServeCtx {
                slot: &slot,
                record: true,
                mode: DurabilityMode::BestEffort,
                counters: &counters,
                timing: false,
            };
            serve_batch(&mut state, batch, &ctx);
            assert_eq!(counters.dedup_hits.load(Ordering::Relaxed), 1);
        }
        let first = cells[0].take().unwrap().unwrap().unwrap();
        let second = cells[1].take().unwrap().unwrap().unwrap();
        assert!(!first.deduplicated && second.deduplicated);
        assert_eq!(fingerprint(&first.report), fingerprint(&second.report));
        assert_eq!(registry.delta_log("s").unwrap().len(), 1, "the twin applied once");
    }

    #[test]
    fn retry_window_is_bounded() {
        let mut window = RetryWindow::default();
        for i in 0..(RETRY_WINDOW_CAP + 10) {
            window.insert(format!("req-{i}"), i as u64);
        }
        assert_eq!(window.order.len(), RETRY_WINDOW_CAP);
        assert_eq!(window.by_id.len(), RETRY_WINDOW_CAP);
        assert!(!window.contains("req-0"), "oldest entries evicted");
        assert!(window.contains(&format!("req-{}", RETRY_WINDOW_CAP + 9)));
        // Round-trips through the snapshot encoding shape.
        let back = RetryWindow::from_pairs(window.to_pairs());
        assert_eq!(back.order, window.order);
    }

    #[test]
    fn per_request_deadline_is_scoped() {
        let registry = SessionRegistry::new(ServiceConfig::default());
        registry.create("s", request(&[("a", 1.0), ("b", 2.0)], &[("a", 1.0)])).unwrap();
        // Same deadline → same deterministic node budget → same report.
        let with_deadline = registry.explain("s", Some(Duration::from_millis(500)), None).unwrap();
        let default_again = registry.explain("s", None, None).unwrap();
        assert!(with_deadline.complete && default_again.complete);
        assert_eq!(fingerprint(&with_deadline), fingerprint(&default_again));
    }
}
