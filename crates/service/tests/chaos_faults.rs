//! Randomized chaos lanes: seeded fault schedules against both the
//! in-process registry and the real `explain3d-serve` binary.
//!
//! Every lane derives its schedule from one seed — fixed by default, or
//! `CHAOS_SEED=<n>` for the randomized CI lane — and prints it first
//! thing, so any failure reproduces with one environment variable. The
//! invariants, per the failure model:
//!
//! * **Strict** mode never loses an acknowledged delta, even through an
//!   injected-fault episode followed by an emulated power cut.
//! * **Best-effort** mode keeps answering `200` through storage failure
//!   and never serves a fingerprint that diverges from the serial oracle.
//! * A retried delta carrying the same `request_id` is applied **exactly
//!   once**, across degraded episodes and across restarts.

use explain3d_durability::{
    DurabilityConfig, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, FsyncPolicy, Trigger,
};
use explain3d_incremental::report_fingerprint;
use explain3d_service::client::{RetryClient, RetryPolicy};
use explain3d_service::json::Json;
use explain3d_service::registry::{DurabilityMode, ServiceConfig, SessionRegistry};
use explain3d_service::wire::{self, DeltaRequest, ServedReport};
use explain3d_service::ServiceError;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

const CREATE_BODY: &str = r#"{
  "left":  {"name": "Q1", "columns": [["k", "str"]], "key": ["k"],
            "tuples": [{"values": ["alpha"], "impact": 2.0},
                       {"values": ["beta"]},
                       {"values": ["gamma"]}]},
  "right": {"name": "Q2", "columns": [["k", "str"]], "key": ["k"],
            "tuples": [{"values": ["alpha"]},
                       {"values": ["beta"]}]},
  "match": {"left": "k", "right": "k"}
}"#;

/// The chaos seed: `CHAOS_SEED` env var, or a fixed default so the plain
/// `cargo test` lane is deterministic. Printed by every lane so a
/// randomized-CI failure reproduces locally with one variable.
fn chaos_seed() -> u64 {
    let seed = std::env::var("CHAOS_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0xC4A0_5EED);
    eprintln!("chaos seed: {seed} (rerun with CHAOS_SEED={seed} to reproduce)");
    seed
}

/// Deterministic xorshift64 over the lane seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64, lane: u64) -> Rng {
        Rng((seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1)
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The serial delta script shared by every lane: always-valid inserts and
/// index-0 updates with distinct keys, so any acknowledged prefix is
/// replayable by the oracle.
fn delta_body(i: usize) -> String {
    match i % 3 {
        0 => format!(
            r#"{{"ops": [{{"op": "insert", "side": "right",
                 "tuple": {{"values": ["t{i}"], "impact": {}.0}}}}]}}"#,
            (i % 5) + 1
        ),
        1 => format!(
            r#"{{"ops": [{{"op": "insert", "side": "left",
                 "tuple": {{"values": ["t{i}"], "impact": {}.0}}}}]}}"#,
            (i % 3) + 1
        ),
        _ => format!(
            r#"{{"ops": [{{"op": "update", "side": "left", "index": 0,
                 "tuple": {{"values": ["alpha"], "impact": {}.0}}}}]}}"#,
            (i % 4) + 1
        ),
    }
}

/// Serial oracle: the reports after create+explain and after each of the
/// first `n` script deltas, computed on a never-faulted in-memory registry.
/// In-process checks compare their full `report_fingerprint` bytes; checks
/// against the serve binary compare its wire digest.
fn oracle_reports(n: usize) -> Vec<Arc<ServedReport>> {
    let oracle = SessionRegistry::new(ServiceConfig::default());
    oracle.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    let mut reports = vec![oracle.explain("s", None, None).unwrap()];
    for i in 0..n {
        let (left, right, _) = oracle.shapes("s").unwrap();
        let parsed = wire::parse_delta(&delta_body(i), &left, &right).unwrap();
        reports.push(oracle.delta("s", parsed, None, None).unwrap().report);
    }
    reports
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3d-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn apply_script_delta(
    registry: &SessionRegistry,
    i: usize,
    request_id: Option<String>,
) -> Result<explain3d_service::DeltaOutcome, ServiceError> {
    let (left, right, _) = registry.shapes("s").unwrap();
    let parsed = wire::parse_delta(&delta_body(i), &left, &right).unwrap();
    registry.delta("s", DeltaRequest { request_id, ..parsed }, None, None)
}

// ---------------------------------------------------------------------
// In-process lanes
// ---------------------------------------------------------------------

/// Best-effort mode under randomized storage failure: every delta is
/// acknowledged `200`, every acknowledged fingerprint matches the serial
/// oracle exactly, and the durability label is honest. After the faults
/// clear, the session reconciles and a restart recovers the final state.
#[test]
fn best_effort_keeps_serving_correct_fingerprints_through_chaos() {
    let seed = chaos_seed();
    let mut rng = Rng::new(seed, 1);
    const DELTAS: usize = 30;
    let oracle = oracle_reports(DELTAS);

    let dir = tempdir("best-effort");
    // ~1-in-4 writes and ~1-in-6 fsyncs fail while armed: enough chaos
    // that the session cycles Durable → Degraded → Reconciled repeatedly.
    let plan = FaultPlan {
        seed: rng.next(),
        rules: vec![
            FaultRule {
                op: FaultOp::Write,
                trigger: Trigger::Chance(250_000),
                kind: FaultKind::Eio,
            },
            FaultRule {
                op: FaultOp::Fsync,
                trigger: Trigger::Chance(160_000),
                kind: FaultKind::Enospc,
            },
        ],
    };
    let shim = FaultInjector::new(plan);
    shim.disarm();
    let mut durability = DurabilityConfig::new(&dir);
    durability.fsync = FsyncPolicy::Always;
    durability.shim = Some(Arc::clone(&shim));
    let config = ServiceConfig {
        durability: Some(durability),
        reattach_interval: Duration::ZERO,
        ..ServiceConfig::default()
    };

    let registry = SessionRegistry::new(config.clone());
    registry.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    let fp = report_fingerprint(&registry.explain("s", None, None).unwrap());
    assert_eq!(fp, report_fingerprint(&oracle[0]), "seed {seed}: cold explain diverged");

    shim.arm();
    let mut degraded_acks = 0usize;
    for i in 0..DELTAS {
        // Random arm/disarm flips so the lane exercises both the failure
        // and the re-attach path at unpredictable moments.
        if rng.below(5) == 0 {
            shim.disarm();
        } else if rng.below(5) == 1 {
            shim.arm();
        }
        let outcome = apply_script_delta(&registry, i, None)
            .unwrap_or_else(|e| panic!("seed {seed}: best-effort refused delta {i}: {e}"));
        assert_eq!(
            report_fingerprint(&outcome.report),
            report_fingerprint(&oracle[i + 1]),
            "seed {seed}: wrong fingerprint served for delta {i}"
        );
        match outcome.durability {
            Some("durable" | "reconciled") => {}
            Some("degraded") => degraded_acks += 1,
            other => panic!("seed {seed}: invalid durability label {other:?}"),
        }
    }
    eprintln!(
        "chaos[best-effort]: {} faults fired, {degraded_acks}/{DELTAS} deltas acked degraded",
        shim.faults_fired()
    );

    // Faults over: the next delta must reconcile (lazy re-attach), and a
    // restart must recover exactly the final state.
    shim.disarm();
    let healed = apply_script_delta(&registry, DELTAS, None).unwrap();
    assert!(
        matches!(healed.durability, Some("durable" | "reconciled")),
        "seed {seed}: still degraded after faults cleared: {:?}",
        healed.durability
    );
    let final_fp = report_fingerprint(&healed.report);
    drop(registry);
    let recovered = SessionRegistry::new(config);
    assert_eq!(
        report_fingerprint(&recovered.report("s").unwrap()),
        final_fp,
        "seed {seed}: restart lost reconciled state"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Strict mode under randomized storage failure plus an emulated power
/// cut: a delta is either refused with a typed 503 or acknowledged, and
/// every acknowledged delta survives both the fault episode and the power
/// cut. Refused deltas are retried with the same `request_id` and must
/// apply exactly once.
#[test]
fn strict_mode_never_loses_an_acked_delta_under_chaos() {
    let seed = chaos_seed();
    let mut rng = Rng::new(seed, 2);
    const DELTAS: usize = 20;
    let oracle = oracle_reports(DELTAS);

    let dir = tempdir("strict");
    let plan = FaultPlan {
        seed: rng.next(),
        rules: vec![
            FaultRule {
                op: FaultOp::Write,
                trigger: Trigger::Chance(200_000),
                kind: FaultKind::Eio,
            },
            FaultRule {
                op: FaultOp::Fsync,
                trigger: Trigger::Chance(120_000),
                kind: FaultKind::Enospc,
            },
        ],
    };
    let shim = FaultInjector::new(plan);
    shim.disarm();
    let mut durability = DurabilityConfig::new(&dir);
    durability.fsync = FsyncPolicy::Always;
    durability.shim = Some(Arc::clone(&shim));
    let config = ServiceConfig {
        durability: Some(durability),
        durability_mode: DurabilityMode::Strict,
        reattach_interval: Duration::ZERO,
        record_deltas: true,
        ..ServiceConfig::default()
    };

    let registry = SessionRegistry::new(config.clone());
    registry.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    registry.explain("s", None, None).unwrap();

    shim.arm();
    let mut acked = 0usize;
    let mut refusals = 0usize;
    for i in 0..DELTAS {
        let request_id = format!("chaos-{seed}-{i}");
        // Retry the same id until acknowledged; disarm after a few
        // failures so every delta eventually lands (the server guarantees
        // exactly-once, the client guarantees eventual delivery).
        let mut attempts = 0;
        let outcome = loop {
            match apply_script_delta(&registry, i, Some(request_id.clone())) {
                Ok(outcome) => break outcome,
                Err(ServiceError::DurabilityUnavailable(_)) => {
                    refusals += 1;
                    attempts += 1;
                    if attempts >= 3 {
                        shim.disarm();
                    }
                }
                Err(e) => panic!("seed {seed}: strict delta {i} failed with non-503: {e}"),
            }
        };
        acked += 1;
        assert_eq!(
            report_fingerprint(&outcome.report),
            report_fingerprint(&oracle[i + 1]),
            "seed {seed}: acked fingerprint for delta {i} diverged (dedup={})",
            outcome.deduplicated,
        );
        // Chaos back on (maybe) for the next delta.
        if rng.below(2) == 0 {
            shim.arm();
        }
    }
    assert_eq!(
        registry.delta_log("s").unwrap().len(),
        DELTAS,
        "seed {seed}: retries must apply exactly once"
    );
    eprintln!(
        "chaos[strict]: {} faults fired, {refusals} typed refusals, {acked} acks",
        shim.faults_fired()
    );

    // Power cut: drop the process state, truncate every file back to its
    // last durably-synced length, recover. Every ack was logged under
    // fsync=always, so nothing may be lost.
    drop(registry);
    shim.disarm();
    let lost = shim.power_cut();
    let recovered = SessionRegistry::new(config);
    assert_eq!(
        report_fingerprint(&recovered.report("s").unwrap()),
        report_fingerprint(&oracle[DELTAS]),
        "seed {seed}: power cut lost an acked delta (truncated {lost:?})"
    );
    // The dedup window also survived: replaying the last id is a no-op.
    let replay =
        apply_script_delta(&recovered, DELTAS - 1, Some(format!("chaos-{seed}-{}", DELTAS - 1)))
            .unwrap();
    assert!(replay.deduplicated, "seed {seed}: dedup window lost in recovery");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Exactly-once under duplication chaos: every delta is sent 1–3 times
/// with the same `request_id` (in-memory registry — dedup must not
/// require durability), and the session state equals the serial oracle's.
#[test]
fn duplicated_request_ids_apply_exactly_once() {
    let seed = chaos_seed();
    let mut rng = Rng::new(seed, 3);
    const DELTAS: usize = 25;
    let oracle = oracle_reports(DELTAS);

    let registry =
        SessionRegistry::new(ServiceConfig { record_deltas: true, ..ServiceConfig::default() });
    registry.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    registry.explain("s", None, None).unwrap();

    let mut sends = 0usize;
    for i in 0..DELTAS {
        let request_id = format!("dup-{seed}-{i}");
        let copies = 1 + rng.below(3) as usize;
        for copy in 0..copies {
            sends += 1;
            let outcome = apply_script_delta(&registry, i, Some(request_id.clone())).unwrap();
            assert_eq!(
                report_fingerprint(&outcome.report),
                report_fingerprint(&oracle[i + 1]),
                "seed {seed}: delta {i} copy {copy} served a diverged fingerprint"
            );
            assert_eq!(
                outcome.deduplicated,
                copy > 0,
                "seed {seed}: delta {i} copy {copy} dedup flag wrong"
            );
        }
    }
    assert_eq!(registry.delta_log("s").unwrap().len(), DELTAS, "seed {seed}");
    assert_eq!(registry.stats().dedup_hits, sends - DELTAS, "seed {seed}");
}

// ---------------------------------------------------------------------
// Real-binary lane
// ---------------------------------------------------------------------

/// Spawns the serve binary and parses the bound address from its banner.
fn spawn_server(data_dir: &Path, extra: &[&str]) -> (Child, SocketAddr) {
    let mut args = vec![
        "--addr",
        "127.0.0.1:0",
        "--data-dir",
        data_dir.to_str().unwrap(),
        "--fsync",
        "always",
        "--threads",
        "2",
    ];
    args.extend_from_slice(extra);
    let mut child = Command::new(env!("CARGO_BIN_EXE_explain3d-serve"))
        .args(&args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning explain3d-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("server prints its banner").expect("banner is readable");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable banner {banner:?}"));
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn retry_client(addr: SocketAddr, seed: u64) -> RetryClient {
    RetryClient::new(
        addr,
        RetryPolicy {
            attempts: 8,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            io_timeout: Duration::from_secs(10),
            seed,
        },
    )
}

fn fingerprint_of(body: &Json) -> String {
    body.get("fingerprint").and_then(|f| f.as_str()).unwrap_or_else(|| panic!("{body}")).to_string()
}

/// The full stack under armed faults: a **strict** server whose WAL
/// storage fails on a schedule, driven by the retrying client over real
/// sockets. Every delta must eventually ack with the oracle fingerprint
/// (503s are retried with the same `request_id`), nothing may apply
/// twice, and after `kill -9` + restart the recovered session must hold
/// exactly the acknowledged state.
#[test]
fn real_binary_strict_faults_kill_and_recovery() {
    let seed = chaos_seed();
    let mut rng = Rng::new(seed, 4);
    const DELTAS: usize = 12;
    let oracle = oracle_reports(DELTAS);

    let dir = tempdir("binary");
    // A deterministic schedule of single-shot WAL write failures: each
    // nth= rule fires once, so the server degrades at those points,
    // re-attaches, and keeps going. Seeded offsets randomize where.
    let n1 = 4 + rng.below(4); // an early write fault
    let n2 = 14 + rng.below(6); // and a later one
    let fault_ops = format!("write:nth={n1}:eio,write:nth={n2}:enospc");
    let (mut child, addr) = spawn_server(
        &dir,
        &["--durability", "strict", "--fault-seed", &seed.to_string(), "--fault-ops", &fault_ops],
    );
    let mut client = retry_client(addr, seed);

    let response = client.call("POST", "/sessions/s", CREATE_BODY).expect("create");
    assert_eq!(response.status, 200, "seed {seed}: {}", response.body);
    let response = client.call("POST", "/sessions/s/explain", "").expect("explain");
    assert_eq!(response.status, 200, "seed {seed}: {}", response.body);
    assert_eq!(fingerprint_of(&response.body), wire::fingerprint_hex(&oracle[0]), "seed {seed}");

    for i in 0..DELTAS {
        // RetryClient stamps one request_id before the first attempt and
        // replays it through every 503, so a fault-refused delta lands
        // exactly once when the session re-attaches.
        let response = client
            .delta("s", &delta_body(i))
            .unwrap_or_else(|e| panic!("seed {seed}: delta {i} never acked: {e}"));
        assert_eq!(response.status, 200, "seed {seed}: delta {i}: {}", response.body);
        assert_eq!(
            fingerprint_of(&response.body),
            wire::fingerprint_hex(&oracle[i + 1]),
            "seed {seed}: delta {i} fingerprint diverged: {}",
            response.body
        );
        let label = response.body.get("durability").and_then(|d| d.as_str());
        assert!(
            matches!(label, Some("durable" | "reconciled")),
            "seed {seed}: strict acked delta {i} with label {label:?}"
        );
    }

    // The faults fired and healed; the health probe agrees.
    let health = client.call("GET", "/healthz", "").expect("healthz");
    assert_eq!(health.status, 200);
    let wal_errors = health
        .body
        .get("wal_errors")
        .and_then(|v| v.as_i64())
        .unwrap_or_else(|| panic!("{}", health.body));
    assert!(wal_errors >= 1, "seed {seed}: fault schedule never fired: {}", health.body);

    // kill -9 mid-flight, restart clean (no faults), and check nothing
    // acked was lost — fsync=always + strict means every 200 is durable.
    let _ = Command::new("kill").args(["-9", &child.id().to_string()]).status();
    let _ = child.wait();
    let (child2, addr2) = spawn_server(&dir, &["--durability", "strict"]);
    let mut client2 = retry_client(addr2, seed ^ 1);
    let report = client2.call("GET", "/sessions/s/report", "").expect("recovered report");
    assert_eq!(report.status, 200, "seed {seed}: {}", report.body);
    assert_eq!(
        fingerprint_of(&report.body),
        wire::fingerprint_hex(&oracle[DELTAS]),
        "seed {seed}: kill -9 lost an acked delta"
    );

    // Exactly-once across the restart: replay the final delta under a
    // fresh id (applies), then the same id again (deduplicated).
    let stamped =
        Json::parse(&delta_body(DELTAS)).unwrap().set("request_id", "replay-1").to_string();
    let first = client2.delta("s", &stamped).expect("replay");
    assert_eq!(first.status, 200, "seed {seed}: {}", first.body);
    let again = client2.delta("s", &stamped).expect("replay dup");
    assert_eq!(again.status, 200, "seed {seed}: {}", again.body);
    assert_eq!(
        again.body.get("deduplicated").and_then(|v| v.as_bool()),
        Some(true),
        "seed {seed}: duplicate request_id re-applied: {}",
        again.body
    );
    assert_eq!(fingerprint_of(&first.body), fingerprint_of(&again.body), "seed {seed}");

    let _ = Command::new("kill").args(["-9", &child2.id().to_string()]).status();
    std::fs::remove_dir_all(&dir).unwrap();
}
