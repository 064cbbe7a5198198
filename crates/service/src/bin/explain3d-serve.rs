//! `explain3d-serve` — the Explain3D explanation service.
//!
//! Hosts many named [`ExplainSession`]s behind an HTTP/1.1 JSON API: create
//! a session by uploading two canonical relations, explain it, stream
//! deltas at it (concurrent deltas against one session coalesce into one
//! incremental re-explanation), read reports, drop it. See the repo
//! README's "Serving" section for curl-able examples.
//!
//! ```text
//! usage: explain3d-serve [--addr HOST:PORT] [--threads N] [--queue N]
//!                        [--backend epoll|poll|auto] [--max-conns N]
//!                        [--io-timeout-ms N] [--memory-budget-mb N]
//!                        [--data-dir DIR]
//!                        [--fsync off|interval[:N]|always]
//!                        [--snapshot-every N]
//!                        [--durability best-effort|strict]
//!                        [--telemetry on|off] [--slow-log-ms N]
//!                        [--fault-seed N] [--fault-ops SPEC] [--smoke]
//! ```
//!
//! One event-loop thread multiplexes every connection through the chosen
//! readiness `--backend` (`auto` picks `epoll` on Linux, `poll`
//! elsewhere) and dispatches complete requests onto `--threads` workers;
//! `--max-conns` caps concurrently open sockets (beyond it accepts are
//! answered 429). Deltas that queue behind a busy session are merged
//! into that session's next re-explanation.
//!
//! With `--data-dir` every session is durable: applied deltas are
//! write-ahead-logged before they are acknowledged, snapshots replace the
//! log every `--snapshot-every` deltas, evicted sessions spill to disk,
//! and a restart on the same directory transparently recovers every
//! session. `--fsync` trades write latency for power-loss protection
//! (process crashes lose nothing under any policy). `--durability` picks
//! what a storage *failure* means: `best-effort` (default) keeps the
//! session serving from memory with `durability: "degraded"` on every
//! response while re-attach retries in the background; `strict` answers
//! writes it cannot log with `503 durability_unavailable` instead.
//! `SIGTERM`/`SIGINT` drain gracefully: stop accepting, finish queued
//! requests, flush every session to a fresh snapshot, exit 0.
//!
//! `--telemetry` (default `on`) arms the observability layer: histogram
//! metrics and per-route counters on `GET /metrics` (Prometheus text),
//! per-request traces with an `X-Trace-Id` response header readable back
//! via `GET /debug/trace/<id>` and `GET /debug/slow`. `--slow-log-ms N`
//! additionally appends a JSON line for every request slower than `N`
//! milliseconds to `slow.jsonl` under `--data-dir` (size-bounded). With
//! `--telemetry off` the service reads no clocks and records nothing —
//! every instrumentation site is one never-taken branch.
//!
//! `--fault-seed` / `--fault-ops` arm the deterministic fault-injection
//! shim on the storage stack (chaos testing only — e.g.
//! `--fault-ops write:ppm=20000:eio,fsync:ppm=5000:silentloss`); the same
//! seed and spec replay the same fault schedule.
//!
//! `--smoke` runs the CI smoke lane instead of serving: bind an ephemeral
//! port, drive a scripted create/explain/delta/report lifecycle over a real
//! `TcpStream`, and verify the returned fingerprints are byte-identical to
//! the same operations run in-process. Exits 0 on success.
//!
//! [`ExplainSession`]: explain3d_incremental::ExplainSession

use explain3d_durability::{DurabilityConfig, FaultInjector, FaultPlan, FsyncPolicy};
use explain3d_service::client::Client;
use explain3d_service::json::Json;
use explain3d_service::registry::{DurabilityMode, ServiceConfig, SessionRegistry};
use explain3d_service::telemetry::SLOW_LOG_MAX_BYTES;
use explain3d_service::wire;
use explain3d_service::{Backend, Server, ServerConfig, SlowLogConfig, Telemetry, TelemetryConfig};
use std::sync::atomic::{AtomicBool, Ordering};

const USAGE: &str = "usage: explain3d-serve [--addr HOST:PORT] [--threads N] [--queue N] \
                     [--backend epoll|poll|auto] [--max-conns N] [--io-timeout-ms N] \
                     [--memory-budget-mb N] [--data-dir DIR] [--fsync off|interval[:N]|always] \
                     [--snapshot-every N] [--durability best-effort|strict] [--telemetry on|off] \
                     [--slow-log-ms N] [--fault-seed N] [--fault-ops SPEC] [--smoke]";

/// Set by the `SIGTERM`/`SIGINT` handler; the accept loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

/// Installs the graceful-drain signal handler (std-only: `signal(2)` via a
/// raw C binding; the handler body is one atomic store, which is
/// async-signal-safe).
#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn request_stop(_signum: i32) {
        STOP.store(true, Ordering::Relaxed);
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    /// `SIG_ERR` — `signal(2)` returns the previous handler, or this on
    /// failure (cast of -1; `usize` here because the binding erases the
    /// handler-pointer type).
    const SIG_ERR: usize = usize::MAX;
    // SAFETY: `request_stop` is an `extern "C" fn(i32)` whose body is a
    // single relaxed atomic store — async-signal-safe, no allocation, no
    // locks. The fn pointer outlives the process (it is a static item), so
    // the kernel never invokes a dangling handler. signal(2) itself takes
    // integers only; its failure return is checked below.
    let (term, int) = unsafe {
        (
            signal(SIGTERM, request_stop as *const () as usize),
            signal(SIGINT, request_stop as *const () as usize),
        )
    };
    if term == SIG_ERR || int == SIG_ERR {
        // Degraded but not fatal: the server still works, it just won't
        // drain gracefully on signals. Say so instead of silently losing
        // the guarantee.
        eprintln!("explain3d-serve: warning: failed to install signal handlers; graceful drain on SIGTERM/SIGINT is disabled");
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

fn usage_error(msg: &str) -> ! {
    eprintln!("explain3d-serve: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_count(raw: &str, name: &str) -> usize {
    match raw.parse() {
        Ok(n) if n > 0 => n,
        _ => usage_error(&format!("{name} takes a positive number, got {raw:?}")),
    }
}

fn main() {
    let mut config = ServerConfig { addr: "127.0.0.1:7433".to_string(), ..Default::default() };
    let mut smoke = false;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::EveryN(16);
    let mut snapshot_every: u64 = 64;
    let mut fault_seed: u64 = 0;
    let mut fault_ops: Option<String> = None;
    let mut telemetry_on = true;
    let mut slow_log_ms: Option<u64> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| usage_error(&format!("missing value for {name}")))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr"),
            "--threads" => config.threads = parse_count(&value("--threads"), "--threads"),
            "--queue" => config.queue_capacity = parse_count(&value("--queue"), "--queue"),
            "--backend" => {
                let raw = value("--backend");
                config.backend = Backend::parse(&raw).unwrap_or_else(|| {
                    usage_error(&format!("--backend takes epoll, poll, or auto; got {raw:?}"))
                });
            }
            "--max-conns" => {
                config.max_connections = parse_count(&value("--max-conns"), "--max-conns");
            }
            "--io-timeout-ms" => {
                config.io_timeout = std::time::Duration::from_millis(parse_count(
                    &value("--io-timeout-ms"),
                    "--io-timeout-ms",
                ) as u64);
            }
            "--memory-budget-mb" => {
                config.service.memory_budget =
                    Some(parse_count(&value("--memory-budget-mb"), "--memory-budget-mb") << 20);
            }
            "--data-dir" => data_dir = Some(value("--data-dir")),
            "--fsync" => {
                let raw = value("--fsync");
                fsync = FsyncPolicy::parse(&raw).unwrap_or_else(|| {
                    usage_error(&format!(
                        "--fsync takes off, never, interval, interval:N, or always; got {raw:?}"
                    ))
                });
            }
            "--snapshot-every" => {
                snapshot_every = parse_count(&value("--snapshot-every"), "--snapshot-every") as u64;
            }
            "--durability" => {
                let raw = value("--durability");
                config.service.durability_mode = DurabilityMode::parse(&raw).unwrap_or_else(|| {
                    usage_error(&format!("--durability takes best-effort or strict; got {raw:?}"))
                });
            }
            "--fault-seed" => {
                let raw = value("--fault-seed");
                fault_seed = raw.parse().unwrap_or_else(|_| {
                    usage_error(&format!("--fault-seed takes a number, got {raw:?}"))
                });
            }
            "--telemetry" => {
                let raw = value("--telemetry");
                telemetry_on = match raw.as_str() {
                    "on" => true,
                    "off" => false,
                    _ => usage_error(&format!("--telemetry takes on or off; got {raw:?}")),
                };
            }
            "--slow-log-ms" => {
                slow_log_ms = Some(parse_count(&value("--slow-log-ms"), "--slow-log-ms") as u64);
            }
            "--fault-ops" => fault_ops = Some(value("--fault-ops")),
            "--smoke" => smoke = true,
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    let shim = fault_ops.map(|spec| {
        let plan = FaultPlan::parse(fault_seed, &spec).unwrap_or_else(|| {
            usage_error(&format!("--fault-ops: cannot parse {spec:?}"));
        });
        eprintln!("explain3d-serve: FAULT INJECTION ARMED (seed {fault_seed}, spec {spec:?})");
        FaultInjector::new(plan)
    });
    if shim.is_some() && data_dir.is_none() {
        usage_error("--fault-ops requires --data-dir (the shim wraps storage I/O)");
    }
    if let Some(dir) = data_dir {
        config.service.durability =
            Some(DurabilityConfig { dir: dir.into(), fsync, snapshot_every, shim });
    }
    if slow_log_ms.is_some() && config.service.durability.is_none() {
        usage_error("--slow-log-ms requires --data-dir (the log lives under it)");
    }
    if slow_log_ms.is_some() && !telemetry_on {
        usage_error("--slow-log-ms requires --telemetry on");
    }
    if telemetry_on {
        let slow_log = match (slow_log_ms, &config.service.durability) {
            (Some(ms), Some(d)) => {
                if let Err(e) = std::fs::create_dir_all(&d.dir) {
                    eprintln!("explain3d-serve: cannot create {}: {e}", d.dir.display());
                    std::process::exit(1);
                }
                Some(SlowLogConfig {
                    path: d.dir.join("slow.jsonl"),
                    threshold: std::time::Duration::from_millis(ms),
                    max_bytes: SLOW_LOG_MAX_BYTES,
                })
            }
            _ => None,
        };
        // Unique-ish per process so restarts do not replay trace ids, yet
        // in-tree (no extra entropy source).
        let trace_seed = (std::process::id() as u64) << 32
            ^ std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos() as u64)
                .unwrap_or(0);
        let tel = TelemetryConfig { trace_seed, slow_log };
        match Telemetry::new(tel) {
            Ok(t) => config.service.telemetry = Some(std::sync::Arc::new(t)),
            Err(e) => {
                eprintln!("explain3d-serve: cannot open the slow log: {e}");
                std::process::exit(1);
            }
        }
    }

    if smoke {
        config.addr = "127.0.0.1:0".to_string();
        std::process::exit(run_smoke(config));
    }

    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("explain3d-serve: cannot bind {}: {e}", config.addr);
            std::process::exit(1);
        }
    };
    println!(
        "explain3d-serve: listening on {} ({} workers, queue {})",
        server.local_addr(),
        config.threads,
        config.queue_capacity
    );
    println!(
        "explain3d-serve: {:?} readiness backend, max {} connections",
        config.backend, config.max_connections
    );
    if let Some(d) = &config.service.durability {
        println!(
            "explain3d-serve: durable sessions under {} (fsync {:?}, snapshot every {})",
            d.dir.display(),
            d.fsync,
            d.snapshot_every
        );
    }
    match (&config.service.telemetry, slow_log_ms) {
        (Some(_), Some(ms)) => {
            println!("explain3d-serve: telemetry on (/metrics, /debug/trace; slow log at {ms}ms)")
        }
        (Some(_), None) => println!("explain3d-serve: telemetry on (/metrics, /debug/trace)"),
        (None, _) => println!("explain3d-serve: telemetry off"),
    }
    install_signal_handlers();
    // `run` returns once STOP is set: it stops accepting, finishes every
    // admitted request, and flushes all durable sessions to snapshots.
    server.run(&STOP);
    println!("explain3d-serve: drained, exiting");
}

/// The scripted session lifecycle of the CI smoke lane. Returns the
/// process exit code.
fn run_smoke(config: ServerConfig) -> i32 {
    let create_body = r#"{
      "left":  {"name": "Q1", "columns": [["name", "str"], ["year", "int"]],
                "key": ["name"],
                "tuples": [{"values": ["computer science", 1999], "impact": 2.0},
                           {"values": ["electrical engineering", 2001]},
                           {"values": ["design", 2003]}]},
      "right": {"name": "Q2", "columns": [["title", "str"], ["published", "int"]],
                "key": ["title"],
                "tuples": [{"values": ["computer science", 1999]},
                           {"values": ["electrical engineering", 2001]}]},
      "match": {"left": "name", "right": "title"},
      "options": {"min_similarity": 0.2}
    }"#;
    let delta_body = r#"{"ops": [
        {"op": "insert", "side": "right", "tuple": {"values": ["design", 2003]}},
        {"op": "update", "side": "left", "index": 0,
         "tuple": {"values": ["computer science", 1999], "impact": 1.0}}
    ]}"#;

    // The in-process oracle: the same lifecycle against a bare registry.
    let oracle = SessionRegistry::new(ServiceConfig::default());
    let create = wire::parse_create(create_body).expect("smoke create body parses");
    oracle.create("smoke", create).expect("oracle create");
    let oracle_explain = oracle.explain("smoke", None, None).expect("oracle explain");
    let (left, right, _) = oracle.shapes("smoke").expect("oracle shapes");
    let parsed = wire::parse_delta(delta_body, &left, &right).expect("smoke delta parses");
    let oracle_delta = oracle.delta("smoke", parsed, None, None).expect("oracle delta");

    // The wire side: a real server on an ephemeral port.
    let server = match Server::bind(config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: cannot bind: {e}");
            return 1;
        }
    };
    let addr = server.local_addr();
    let handle = server.spawn();
    println!("smoke: server on {addr}");

    let result = (|| -> Result<(), String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let expect = |step: &str,
                      got: Result<(u16, Json), explain3d_service::client::ClientError>,
                      want_status: u16|
         -> Result<Json, String> {
            let (status, body) = got.map_err(|e| format!("{step}: {e}"))?;
            if status != want_status {
                return Err(format!("{step}: status {status}, wanted {want_status}: {body}"));
            }
            Ok(body)
        };

        let health = expect("healthz", client.request("GET", "/healthz", ""), 200)?;
        if health.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("healthz body: {health}"));
        }
        expect("create", client.request("POST", "/sessions/smoke", create_body), 200)?;
        let explain =
            expect("explain", client.request("POST", "/sessions/smoke/explain", ""), 200)?;
        let wire_explain_fp = explain
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("explain: no fingerprint")?
            .to_string();
        let oracle_explain_fp = wire::fingerprint_hex(&oracle_explain);
        if wire_explain_fp != oracle_explain_fp {
            return Err(format!(
                "explain fingerprints diverge: wire {wire_explain_fp} vs in-process {oracle_explain_fp}"
            ));
        }
        let delta =
            expect("delta", client.request("POST", "/sessions/smoke/delta", delta_body), 200)?;
        let wire_delta_fp = delta
            .get("fingerprint")
            .and_then(Json::as_str)
            .ok_or("delta: no fingerprint")?
            .to_string();
        let oracle_delta_fp = wire::fingerprint_hex(&oracle_delta.report);
        if wire_delta_fp != oracle_delta_fp {
            return Err(format!(
                "delta fingerprints diverge: wire {wire_delta_fp} vs in-process {oracle_delta_fp}"
            ));
        }
        let report = expect("report", client.request("GET", "/sessions/smoke/report", ""), 200)?;
        if report.get("fingerprint").and_then(Json::as_str) != Some(&wire_delta_fp) {
            return Err("stored report differs from the delta response".into());
        }
        // Errors come back typed, not as closed connections.
        expect(
            "bad delta",
            client.request(
                "POST",
                "/sessions/smoke/delta",
                r#"{"ops": [{"op": "delete", "side": "left", "index": 99}]}"#,
            ),
            400,
        )?;
        expect("missing session", client.request("POST", "/sessions/nope/explain", ""), 404)?;
        expect("drop", client.request("DELETE", "/sessions/smoke", ""), 200)?;
        expect("dropped report", client.request("GET", "/sessions/smoke/report", ""), 404)?;
        Ok(())
    })();

    handle.shutdown();
    match result {
        Ok(()) => {
            println!("smoke: PASS — wire fingerprints byte-identical to in-process run");
            0
        }
        Err(e) => {
            eprintln!("smoke: FAIL — {e}");
            1
        }
    }
}
