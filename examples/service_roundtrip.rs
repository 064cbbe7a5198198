//! The session registry as a library: create / explain / delta / report
//! entirely in-process — no sockets — showing that the serving subsystem is
//! usable without `explain3d-serve`.
//!
//! Two program catalogs disagree; we register them as a named session,
//! explain, then stream two edits at the session and re-explain
//! incrementally. The final report is verified byte-identical (by
//! fingerprint) to a from-scratch session on the post-delta relations —
//! the serving invariant in miniature.
//!
//! Run with: `cargo run --example service_roundtrip`

use explain3d::prelude::*;
use explain3d::service::registry::ServiceConfig;
use explain3d::service::wire;

fn main() {
    let registry = SessionRegistry::new(ServiceConfig::default());

    // Relation uploads use the wire shapes even in-process, so the same
    // JSON works over HTTP unchanged.
    let create_body = r#"{
      "left":  {"name": "programs",
                "columns": [["name", "str"]],
                "key": ["name"],
                "tuples": [{"values": ["Accounting"]},
                           {"values": ["CS"], "impact": 2.0},
                           {"values": ["Design"]},
                           {"values": ["Management"]}]},
      "right": {"name": "majors",
                "columns": [["major", "str"]],
                "key": ["major"],
                "tuples": [{"values": ["Accounting"]},
                           {"values": ["CS"]},
                           {"values": ["Design"]}]},
      "match": {"left": "name", "right": "major"}
    }"#;
    let create = wire::parse_create(create_body).expect("create body parses");
    registry.create("catalogs", create).expect("fresh name");

    let first = registry.explain("catalogs", None, None).expect("session exists");
    println!(
        "cold explain: {} provenance + {} value explanations, complete: {}",
        first.explanations.provenance.len(),
        first.explanations.value.len(),
        first.complete
    );

    // The majors catalog catches up: Management appears, and CS is now
    // double-counted there too.
    let (left, right, _) = registry.shapes("catalogs").expect("session exists");
    let delta_body = r#"{"ops": [
        {"op": "insert", "side": "right", "tuple": {"values": ["Management"]}},
        {"op": "update", "side": "right", "index": 1,
         "tuple": {"values": ["CS"], "impact": 2.0}}
    ]}"#;
    let parsed = wire::parse_delta(delta_body, &left, &right).expect("delta body parses");
    let outcome = registry.delta("catalogs", parsed, None, None).expect("in range");
    println!(
        "after delta: {} explanations left, component cache hits: {}",
        outcome.report.explanations.len(),
        outcome.report.stats.delta.component_cache_hits
    );

    // The stored report is the delta's report.
    let stored = registry.report("catalogs").expect("explained");
    assert_eq!(report_fingerprint(&stored), report_fingerprint(&outcome.report));

    // Byte-identity: a from-scratch session over the post-delta relations
    // must fingerprint identically.
    let fresh_registry = SessionRegistry::new(ServiceConfig::default());
    let fresh_body = r#"{
      "left":  {"name": "programs",
                "columns": [["name", "str"]],
                "key": ["name"],
                "tuples": [{"values": ["Accounting"]},
                           {"values": ["CS"], "impact": 2.0},
                           {"values": ["Design"]},
                           {"values": ["Management"]}]},
      "right": {"name": "majors",
                "columns": [["major", "str"]],
                "key": ["major"],
                "tuples": [{"values": ["Accounting"]},
                           {"values": ["CS"], "impact": 2.0},
                           {"values": ["Design"]},
                           {"values": ["Management"]}]},
      "match": {"left": "name", "right": "major"}
    }"#;
    let fresh = wire::parse_create(fresh_body).expect("fresh body parses");
    fresh_registry.create("catalogs", fresh).expect("fresh name");
    let cold = fresh_registry.explain("catalogs", None, None).expect("session exists");
    assert_eq!(
        report_fingerprint(&outcome.report),
        report_fingerprint(&cold),
        "incremental service report must be byte-identical to a cold run"
    );
    println!("byte-identity vs from-scratch session: ok");

    registry.drop_session("catalogs").expect("still present");
    let stats = registry.stats();
    println!(
        "registry stats: {} create, {} explain, {} delta, {} report, {} drop",
        stats.creates, stats.explains, stats.deltas_applied, stats.reports, stats.drops
    );
}
