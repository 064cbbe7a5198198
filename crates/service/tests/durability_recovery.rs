//! Recovery edge cases for durable sessions, each fingerprint-compared
//! against a never-persisted in-process oracle running the same operation
//! sequence: empty log, snapshot-only recovery (snapshot every delta),
//! log-only recovery (snapshot cadence never reached), double-recovery
//! idempotence, and recovery of a spilled (evicted) session.

use explain3d_durability::DurabilityConfig;
use explain3d_incremental::report_fingerprint;
use explain3d_service::error::ServiceError;
use explain3d_service::registry::{ServiceConfig, SessionRegistry};
use explain3d_service::wire;
use std::path::PathBuf;

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

/// A serial script of always-valid deltas (inserts and index-0 updates).
const DELTAS: &[&str] = &[
    r#"{"ops": [{"op": "insert", "side": "right", "tuple": {"values": ["gamma"]}}]}"#,
    r#"{"ops": [{"op": "update", "side": "left", "index": 0,
                 "tuple": {"values": ["alpha"], "impact": 1.0}}]}"#,
    r#"{"ops": [{"op": "insert", "side": "left", "tuple": {"values": ["delta"], "impact": 3.0}}]}"#,
    r#"{"ops": [{"op": "insert", "side": "right", "tuple": {"values": ["epsilon"]}}]}"#,
    r#"{"ops": [{"op": "update", "side": "right", "index": 0,
                 "tuple": {"values": ["alpha"], "impact": 2.0}}]}"#,
];

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3d-recov-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(dir: &PathBuf, snapshot_every: u64) -> ServiceConfig {
    let mut d = DurabilityConfig::new(dir);
    d.snapshot_every = snapshot_every;
    ServiceConfig { durability: Some(d), ..ServiceConfig::default() }
}

fn create(registry: &SessionRegistry, name: &str) {
    registry.create(name, wire::parse_create(CREATE_BODY).unwrap()).unwrap();
}

fn apply(registry: &SessionRegistry, name: &str, body: &str) -> Vec<u8> {
    let (left, right, _) = registry.shapes(name).unwrap();
    let parsed = wire::parse_delta(body, &left, &right).unwrap();
    let outcome = registry.delta(name, parsed, None, None).unwrap();
    report_fingerprint(&outcome.report)
}

/// The oracle: the same script against a purely in-memory registry,
/// returning the final fingerprint.
fn oracle_fingerprint(deltas: &[&str]) -> Vec<u8> {
    let oracle = SessionRegistry::new(ServiceConfig::default());
    create(&oracle, "s");
    let mut fp = report_fingerprint(&oracle.explain("s", None, None).unwrap());
    for body in deltas {
        fp = apply(&oracle, "s", body);
    }
    fp
}

#[test]
fn empty_log_recovery_of_an_unexplained_session() {
    let dir = tempdir("empty");
    {
        let registry = SessionRegistry::new(durable(&dir, 64));
        create(&registry, "s");
        // No explain, no deltas: only the genesis snapshot exists.
    }
    let recovered = SessionRegistry::new(durable(&dir, 64));
    // The session is recoverable but has no report yet — exactly like the
    // never-crashed state.
    assert!(matches!(recovered.report("s"), Err(ServiceError::NoReport(_))));
    let fp = report_fingerprint(&recovered.explain("s", None, None).unwrap());
    assert_eq!(fp, oracle_fingerprint(&[]));
    assert_eq!(recovered.stats().recoveries, 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snapshot_only_recovery_when_every_delta_snapshots() {
    // snapshot_every = 1: the WAL is reset after every delta, so recovery
    // is driven by the snapshot alone (zero records replayed).
    let dir = tempdir("snaponly");
    {
        let registry = SessionRegistry::new(durable(&dir, 1));
        create(&registry, "s");
        registry.explain("s", None, None).unwrap();
        for body in DELTAS {
            apply(&registry, "s", body);
        }
    }
    let recovered = SessionRegistry::new(durable(&dir, 1));
    let fp = report_fingerprint(&recovered.report("s").unwrap());
    assert_eq!(fp, oracle_fingerprint(DELTAS));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_only_recovery_when_the_cadence_is_never_reached() {
    // A huge snapshot interval: after the explain-time snapshot, every
    // delta lives only in the WAL, so recovery replays the full suffix.
    let dir = tempdir("logonly");
    {
        let registry = SessionRegistry::new(durable(&dir, u64::MAX));
        create(&registry, "s");
        registry.explain("s", None, None).unwrap();
        for body in DELTAS {
            apply(&registry, "s", body);
        }
        // Dropped without any flush: recovery works off the log alone.
    }
    let recovered = SessionRegistry::new(durable(&dir, u64::MAX));
    let fp = report_fingerprint(&recovered.report("s").unwrap());
    assert_eq!(fp, oracle_fingerprint(DELTAS));
    let info = recovered.list().into_iter().find(|s| s.name == "s").unwrap();
    assert_eq!(info.deltas_logged as usize, DELTAS.len());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn double_recovery_is_idempotent() {
    // Recovering, doing nothing, and recovering again must keep producing
    // the same report — recovery itself never mutates durable state.
    let dir = tempdir("double");
    {
        let registry = SessionRegistry::new(durable(&dir, 3));
        create(&registry, "s");
        registry.explain("s", None, None).unwrap();
        for body in DELTAS {
            apply(&registry, "s", body);
        }
    }
    let expected = oracle_fingerprint(DELTAS);
    for round in 0..3 {
        let recovered = SessionRegistry::new(durable(&dir, 3));
        let fp = report_fingerprint(&recovered.report("s").unwrap());
        assert_eq!(fp, expected, "recovery round {round} diverged");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn spilled_session_recovers_and_keeps_serving() {
    // Budget pressure spills the LRU session to disk; the next delta
    // against it transparently recovers it and the combined
    // pre-spill + post-recovery delta sequence matches the oracle.
    let probe = SessionRegistry::new(ServiceConfig::default());
    create(&probe, "p");
    probe.explain("p", None, None).unwrap();
    let per_session = probe.total_footprint();

    let dir = tempdir("spill");
    let mut config = durable(&dir, 64);
    config.memory_budget = Some(per_session * 5 / 2);
    let registry = SessionRegistry::new(config);
    create(&registry, "victim");
    registry.explain("victim", None, None).unwrap();
    let (pre, post) = DELTAS.split_at(2);
    for body in pre {
        apply(&registry, "victim", body);
    }
    // Two fresh sessions push "victim" out as the LRU.
    for name in ["f1", "f2"] {
        create(&registry, name);
        registry.explain(name, None, None).unwrap();
    }
    assert!(registry.list().iter().all(|s| s.name != "victim"), "victim must have been evicted");
    assert!(registry.stats().spills >= 1);
    let mut fp = Vec::new();
    for body in post {
        fp = apply(&registry, "victim", body);
    }
    assert_eq!(fp, oracle_fingerprint(DELTAS));
    assert!(registry.stats().recoveries >= 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_recovery_is_serialized_and_loses_no_acked_delta() {
    // Many threads hit a non-resident (post-restart) session at once, each
    // appending a delta the moment recovery completes. Before recovery was
    // gated per name, every racer ran `SessionStore::recover` — whose
    // WAL-open truncates the log to its valid length — so a late loser's
    // truncation could erase records the winner had already appended and
    // acknowledged. Exactly one recovery may run, and a further restart
    // must replay every acknowledged delta.
    const THREADS: usize = 8;
    let dir = tempdir("concrecov");
    {
        let registry = SessionRegistry::new(durable(&dir, u64::MAX));
        create(&registry, "s");
        registry.explain("s", None, None).unwrap();
        for body in DELTAS {
            apply(&registry, "s", body);
        }
        // Dropped without a flush: the next request must recover.
    }
    let registry =
        SessionRegistry::new(ServiceConfig { record_deltas: true, ..durable(&dir, u64::MAX) });
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                let body = format!(
                    r#"{{"ops": [{{"op": "insert", "side": "right",
                         "tuple": {{"values": ["r{t}"]}}}}]}}"#
                );
                apply(registry, "s", &body);
            });
        }
    });
    assert_eq!(registry.stats().recoveries, 1, "recovery must run exactly once");
    assert_eq!(registry.delta_log("s").unwrap().len(), THREADS);
    let live = report_fingerprint(&registry.report("s").unwrap());
    drop(registry);
    // Restart: the WAL must hold DELTAS plus every concurrent insert in
    // admitted order — a truncated acked record would diverge (or fail)
    // this replay.
    let recovered = SessionRegistry::new(durable(&dir, u64::MAX));
    assert_eq!(report_fingerprint(&recovered.report("s").unwrap()), live);
    let info = recovered.list().into_iter().find(|s| s.name == "s").unwrap();
    assert_eq!(info.deltas_logged as usize, DELTAS.len() + THREADS);
    assert!(info.explained);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn delta_storm_under_eviction_pressure_keeps_the_wal_consistent() {
    // Tiny budget + concurrent deltas: eviction keeps spilling sessions
    // while racing requests look them up. A request that loses the race
    // must re-route to the recovered slot instead of appending through the
    // removed slot's stale WAL writer — duplicate sequence numbers would
    // make the next recovery fail with a WAL gap. Every delta must
    // succeed, and a final restart must recover every session to exactly
    // the report it last served.
    const THREADS: usize = 4;
    const OPS: usize = 12;
    const NAMES: [&str; 3] = ["a", "b", "c"];
    let probe = SessionRegistry::new(ServiceConfig::default());
    create(&probe, "p");
    probe.explain("p", None, None).unwrap();
    let per_session = probe.total_footprint().max(1);

    let dir = tempdir("evictrace");
    let mut config = durable(&dir, 4);
    config.memory_budget = Some(per_session * 3 / 2);
    let registry = SessionRegistry::new(config);
    for name in NAMES {
        create(&registry, name);
        registry.explain(name, None, None).unwrap();
    }
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = &registry;
            scope.spawn(move || {
                for i in 0..OPS {
                    let name = NAMES[(t + i) % NAMES.len()];
                    let body = format!(
                        r#"{{"ops": [{{"op": "insert", "side": "right",
                             "tuple": {{"values": ["t{t}i{i}"]}}}}]}}"#
                    );
                    // `apply` unwraps: a WAL-gap Internal error (or a
                    // zombie-slot NotFound) fails the test.
                    apply(registry, name, &body);
                }
            });
        }
    });
    let live: Vec<(&str, Vec<u8>)> =
        NAMES.iter().map(|n| (*n, report_fingerprint(&registry.report(n).unwrap()))).collect();
    assert!(registry.stats().spills >= 1, "the budget must have forced at least one spill");
    drop(registry);
    let recovered = SessionRegistry::new(durable(&dir, 4));
    for (name, fp) in live {
        assert_eq!(
            report_fingerprint(&recovered.report(name).unwrap()),
            fp,
            "session {name} diverged after restart"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
