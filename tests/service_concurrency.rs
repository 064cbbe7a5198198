//! Concurrency torture for the service registry: M threads × K sessions
//! issuing randomized interleaved create/delta/explain/report operations.
//!
//! The serving invariant under test: **any** interleaving of concurrent
//! requests yields, per session, reports byte-identical
//! (`report_fingerprint`) to the same operations applied serially in the
//! order the registry admitted them — including when queued deltas are
//! coalesced into one `re_explain`, and including after LRU eviction and
//! re-creation. The registry's applied-delta log (`record_deltas`) is the
//! serial-replay oracle: replaying each session's log on a fresh
//! single-threaded session must land on the same fingerprint as the
//! session's last stored report.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::prelude::*;
use explain3d::service::registry::ServiceConfig;
use explain3d::service::wire::CreateRequest;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn canon(name: &str, entries: &[(String, f64)]) -> CanonicalRelation {
    CanonicalRelation {
        query_name: name.to_string(),
        schema: Schema::from_pairs(&[("k", ValueType::Str)]),
        key_attrs: vec!["k".to_string()],
        tuples: entries
            .iter()
            .enumerate()
            .map(|(i, (k, imp))| CanonicalTuple {
                id: i,
                key: vec![Value::str(k.clone())],
                impact: *imp,
                members: vec![i],
                representative: Row::new(vec![Value::str(k.clone())]),
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

/// The base relations of session `s`: small, distinct per session, with
/// some overlap between sides so components are non-trivial. Keys are
/// single tokens unique per entity, so token blocking keeps the mapping
/// graph sparse and every MILP component tiny — the torture pressure is on
/// the registry's concurrency, not the solver.
fn base_request(s: usize) -> CreateRequest {
    let left: Vec<(String, f64)> =
        (0..5).map(|i| (format!("e{s}x{i}"), if i == 0 { 2.0 } else { 1.0 })).collect();
    let right: Vec<(String, f64)> = (0..4).map(|i| (format!("e{s}x{i}"), 1.0)).collect();
    CreateRequest {
        left: canon("Q1", &left),
        right: canon("Q2", &right),
        matches: AttributeMatches::single_equivalent("k", "k"),
        config: explain3d::incremental::SessionConfig::default(),
    }
}

/// A small random delta. Indices are drawn from the base sizes, so under
/// churn some ops go out of range — those must come back as typed errors
/// and leave the session untouched, exactly like serial execution.
fn random_delta(rng: &mut StdRng, session: usize, step: usize) -> RelationDelta {
    let side = if rng.gen_range(0..2u32) == 0 { Side::Left } else { Side::Right };
    match rng.gen_range(0..3u32) {
        0 => RelationDelta::new().insert(side, tuple(&format!("n{session}x{step}"), 1.0)),
        1 => RelationDelta::new().update(
            side,
            rng.gen_range(0..4usize),
            tuple(&format!("u{session}x{step}"), rng.gen_range(1..4i64) as f64),
        ),
        _ => RelationDelta::new().delete(side, rng.gen_range(0..5usize)),
    }
}

/// Replays a session's applied-delta log serially on a fresh session and
/// returns the final fingerprint.
fn serial_replay(session: usize, log: &[RelationDelta]) -> Vec<u8> {
    let req = base_request(session);
    let mut s = ExplainSession::new(req.left, req.right, req.matches, req.config);
    let mut report = s.explain();
    for delta in log {
        report =
            s.re_explain(delta).expect("logged deltas were applied once, so they replay cleanly");
    }
    report_fingerprint(&report)
}

#[test]
fn randomized_interleavings_match_serial_replay() {
    const THREADS: usize = 4;
    const SESSIONS: usize = 4;
    const OPS_PER_THREAD: usize = 24;

    let registry = Arc::new(SessionRegistry::new(ServiceConfig {
        memory_budget: None,
        record_deltas: true,
        ..Default::default()
    }));
    for s in 0..SESSIONS {
        registry.create(&format!("s{s}"), base_request(s)).unwrap();
        registry.explain(&format!("s{s}"), None, None).unwrap();
    }

    let delta_errors = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            let delta_errors = Arc::clone(&delta_errors);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                for step in 0..OPS_PER_THREAD {
                    let s = rng.gen_range(0..SESSIONS);
                    let name = format!("s{s}");
                    match rng.gen_range(0..10u32) {
                        // Mostly deltas: that is where coalescing and the
                        // incremental path live.
                        0..=6 => {
                            let delta = random_delta(&mut rng, s, t * 1000 + step);
                            match registry.delta(&name, delta.into(), None, None) {
                                Ok(outcome) => assert!(outcome.report.complete),
                                Err(explain3d::service::ServiceError::Delta(_)) => {
                                    delta_errors.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => panic!("unexpected delta error: {e}"),
                            }
                        }
                        7 | 8 => {
                            let report = registry.report(&name).unwrap();
                            assert!(report.complete);
                        }
                        _ => {
                            let report = registry.explain(&name, None, None).unwrap();
                            assert!(report.complete);
                        }
                    }
                }
            });
        }
    });

    // Per-session byte-identity vs serial replay of the admitted order.
    for s in 0..SESSIONS {
        let name = format!("s{s}");
        let log = registry.delta_log(&name).unwrap();
        let stored = report_fingerprint(&registry.report(&name).unwrap());
        let replayed = serial_replay(s, &log);
        assert_eq!(
            stored,
            replayed,
            "session {name}: concurrent result diverged from serial replay of {} deltas",
            log.len()
        );
    }

    let stats = registry.stats();
    assert!(stats.deltas_applied > 0);
    println!(
        "torture: {} deltas applied, {} coalesced, {} rejected out-of-range, {} explains",
        stats.deltas_applied,
        stats.coalesced_deltas,
        delta_errors.load(Ordering::Relaxed),
        stats.explains,
    );
}

#[test]
fn eviction_and_recreate_round_trip_under_contention() {
    const THREADS: usize = 4;
    const SESSIONS: usize = 4;
    const OPS_PER_THREAD: usize = 16;

    // Budget for roughly one explained session, so churn across four
    // sessions keeps evicting the idle ones.
    let probe = SessionRegistry::new(ServiceConfig::default());
    probe.create("p", base_request(0)).unwrap();
    probe.explain("p", None, None).unwrap();
    let per_session = probe.total_footprint().max(1);

    let registry = Arc::new(SessionRegistry::new(ServiceConfig {
        memory_budget: Some(per_session * 3 / 2),
        record_deltas: true,
        ..Default::default()
    }));
    for s in 0..SESSIONS {
        registry.create(&format!("s{s}"), base_request(s)).unwrap();
    }

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let registry = Arc::clone(&registry);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9000 + t as u64);
                for step in 0..OPS_PER_THREAD {
                    let s = rng.gen_range(0..SESSIONS);
                    let name = format!("s{s}");
                    let delta = random_delta(&mut rng, s, t * 1000 + step);
                    match registry.delta(&name, delta.into(), None, None) {
                        Ok(_) | Err(explain3d::service::ServiceError::Delta(_)) => {}
                        Err(explain3d::service::ServiceError::SessionNotFound(_)) => {
                            // Evicted: re-create from base and move on. A
                            // concurrent re-create may win the race.
                            match registry.create(&name, base_request(s)) {
                                Ok(())
                                | Err(explain3d::service::ServiceError::SessionExists(_)) => {}
                                Err(e) => panic!("re-create failed: {e}"),
                            }
                        }
                        Err(e) => panic!("unexpected delta error: {e}"),
                    }
                }
            });
        }
    });

    // Every surviving session must equal the serial replay of the deltas
    // applied since its (most recent) creation.
    let mut verified = 0;
    for s in 0..SESSIONS {
        let name = format!("s{s}");
        let Ok(log) = registry.delta_log(&name) else { continue };
        let stored = match registry.report(&name) {
            Ok(report) => report,
            // Re-created by the churn and never touched since: explain it
            // now; it must match a fresh session like any other survivor.
            Err(explain3d::service::ServiceError::NoReport(_)) if log.is_empty() => {
                registry.explain(&name, None, None).expect("explain a re-created session")
            }
            Err(_) => continue,
        };
        assert_eq!(
            report_fingerprint(&stored),
            serial_replay(s, &log),
            "session {name} diverged after eviction/re-create churn"
        );
        verified += 1;
    }
    assert!(verified > 0, "at least one session must survive to be verified");
    let stats = registry.stats();
    assert!(
        stats.evictions > 0,
        "the budget must actually evict (footprint per session {per_session})"
    );
    println!(
        "eviction churn: {} evictions, {} creates, {} deltas, {} sessions verified",
        stats.evictions, stats.creates, stats.deltas_applied, verified
    );
}
