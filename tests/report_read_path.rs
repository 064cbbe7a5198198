//! The served report read path over a real socket.
//!
//! * Every report response (`POST explain`, `POST delta`, `GET report`) is
//!   spliced from the report's stored encoding; its body must be
//!   byte-identical to `wire::emit_report` plus the optional `durability`
//!   and `deduplicated` members, for every durability label, coalesced
//!   and deduplicated deltas, and a session name that needs JSON escaping.
//! * A report read after an acknowledged delta sees that delta's report —
//!   also pipelined on one keep-alive connection, and also when the delta
//!   first had to recover an evicted (spilled) session.
//! * `GET /report` never takes the session state lock, and a session
//!   poisoned by an earlier panic still answers 500.

use explain3d::durability::{
    DurabilityConfig, FaultInjector, FaultKind, FaultOp, FaultPlan, FaultRule, Trigger,
};
use explain3d::service::json::Json;
use explain3d::service::registry::{ServiceConfig, SessionRegistry};
use explain3d::service::{wire, Server, ServerConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const CREATE_BODY: &str = r#"{
  "left":  {"name": "Q1", "columns": [["k", "str"]], "key": ["k"],
            "tuples": [{"values": ["alpha"], "impact": 2.0},
                       {"values": ["beta"]}]},
  "right": {"name": "Q2", "columns": [["k", "str"]], "key": ["k"],
            "tuples": [{"values": ["alpha"]}]},
  "match": {"left": "k", "right": "k"}
}"#;

fn insert(key: &str) -> String {
    format!(r#"{{"ops": [{{"op": "insert", "side": "right", "tuple": {{"values": ["{key}"]}}}}]}}"#)
}

/// A server with enough workers that three deltas can all be waiting on
/// one busy session at once, so they coalesce into one run.
fn serve(service: ServiceConfig) -> (SocketAddr, ServerHandle) {
    let config = ServerConfig { threads: 4, service, ..ServerConfig::default() };
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr();
    (addr, server.spawn())
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3d-readpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn send(stream: &mut TcpStream, method: &str, path: &str, body: &str) {
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("write request");
}

/// Reads exactly one response off `stream`: (status, body).
fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        let n = stream.read(&mut byte).expect("read response head");
        assert!(n > 0, "connection closed mid-response: {head:?}");
        head.push(byte[0]);
    }
    let head = String::from_utf8(head).expect("utf-8 head");
    let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
    let length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
        .and_then(|v| v.trim().parse().ok())
        .expect("Content-Length");
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("read body");
    (status, String::from_utf8(body).expect("utf-8 body"))
}

/// One request on a fresh connection; the body must be a 200.
fn ok(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = connect(addr);
    send(&mut stream, method, path, body);
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200, "{method} {path}: {body}");
    body
}

/// What the route must have sent: the emitter's text for the session's
/// current report with `coalesced` and the optional members.
fn expected_body(
    registry: &SessionRegistry,
    name: &str,
    coalesced: usize,
    durability: Option<&str>,
    deduplicated: bool,
) -> String {
    let report = registry.report(name).expect("session has a report");
    let mut json = wire::emit_report(name, &report, coalesced);
    if let Some(label) = durability {
        json = json.set("durability", label);
    }
    if deduplicated {
        json = json.set("deduplicated", true);
    }
    json.to_string()
}

fn fingerprint(body: &str) -> String {
    let json = Json::parse(body).expect("JSON body");
    json.get("fingerprint").and_then(Json::as_str).expect("fingerprint").to_string()
}

#[test]
fn report_responses_are_byte_identical_to_the_emitter() {
    // Memory-only (no durability label), with a name that needs escaping:
    // `q"uote\name` on the wire as percent escapes.
    let (addr, handle) = serve(ServiceConfig::default());
    let registry = handle.registry();
    let (name, path) = ("q\"uote\\name", "/sessions/q%22uote%5Cname");
    ok(addr, "POST", path, CREATE_BODY);
    let explain = ok(addr, "POST", &format!("{path}/explain"), "");
    assert_eq!(explain, expected_body(&registry, name, 0, None, false));
    let report = ok(addr, "GET", &format!("{path}/report"), "");
    assert_eq!(report, expected_body(&registry, name, 0, None, false));
    let delta_body = r#"{"ops": [{"op": "insert", "side": "right", "tuple": {"values": ["beta"]}}],
                         "request_id": "once"}"#;
    let delta = ok(addr, "POST", &format!("{path}/delta"), delta_body);
    assert_eq!(delta, expected_body(&registry, name, 0, None, false));
    let retried = ok(addr, "POST", &format!("{path}/delta"), delta_body);
    assert_eq!(retried, expected_body(&registry, name, 0, None, true));

    // Coalesced deltas: three deltas queue behind the held session lock,
    // so the first drain after the release serves them in one run and
    // every response carries that run's report.
    let threads = registry
        .with_state_lock_held(name, || {
            let threads: Vec<_> = (0..3)
                .map(|i| {
                    let path = format!("{path}/delta");
                    std::thread::spawn(move || {
                        let mut stream = connect(addr);
                        send(&mut stream, "POST", &path, &insert(&format!("t{i}")));
                        read_response(&mut stream)
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while registry.queued_deltas(name).unwrap() < 3 {
                assert!(Instant::now() < deadline, "three deltas never queued");
                std::thread::sleep(Duration::from_millis(1));
            }
            threads
        })
        .unwrap();
    for thread in threads {
        let (status, body) = thread.join().expect("delta thread");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, expected_body(&registry, name, 2, None, false));
    }
    handle.shutdown();

    // Durable, then degraded: every write fails while the shim is armed.
    let dir = tempdir("labels");
    let shim = FaultInjector::new(FaultPlan {
        seed: 7,
        rules: vec![FaultRule {
            op: FaultOp::Write,
            trigger: Trigger::EveryNth(1),
            kind: FaultKind::Eio,
        }],
    });
    shim.disarm();
    let mut durability = DurabilityConfig::new(&dir);
    durability.shim = Some(Arc::clone(&shim));
    let (addr, handle) = serve(ServiceConfig {
        durability: Some(durability),
        reattach_interval: Duration::from_secs(3600),
        ..Default::default()
    });
    let registry = handle.registry();
    ok(addr, "POST", "/sessions/d", CREATE_BODY);
    let explain = ok(addr, "POST", "/sessions/d/explain", "");
    assert_eq!(explain, expected_body(&registry, "d", 0, Some("durable"), false));
    let delta = ok(addr, "POST", "/sessions/d/delta", &insert("beta"));
    assert_eq!(delta, expected_body(&registry, "d", 0, Some("durable"), false));
    shim.arm();
    let degraded = ok(addr, "POST", "/sessions/d/delta", &insert("gamma"));
    assert_eq!(degraded, expected_body(&registry, "d", 0, Some("degraded"), false));
    let report = ok(addr, "GET", "/sessions/d/report", "");
    assert_eq!(report, expected_body(&registry, "d", 0, Some("degraded"), false));
    shim.disarm();
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Pipelines `POST delta` and `GET report` on one connection and checks
/// the read returns the delta's report.
fn pipelined_delta_then_report(
    addr: SocketAddr,
    registry: &SessionRegistry,
    name: &str,
    key: &str,
) {
    let mut stream = connect(addr);
    send(&mut stream, "POST", &format!("/sessions/{name}/delta"), &insert(key));
    send(&mut stream, "GET", &format!("/sessions/{name}/report"), "");
    let (status, delta) = read_response(&mut stream);
    assert_eq!(status, 200, "{delta}");
    let (status, report) = read_response(&mut stream);
    assert_eq!(status, 200, "{report}");
    assert_eq!(fingerprint(&report), fingerprint(&delta), "the read missed the acked delta");
    let stored = registry.report(name).unwrap();
    assert_eq!(fingerprint(&report), wire::fingerprint_hex(&stored));
}

#[test]
fn a_pipelined_read_sees_the_delta_before_it_also_after_recovery() {
    // Budget for about one and a half sessions: explaining a second
    // session spills the first, and the next request naming it recovers it.
    let probe = SessionRegistry::new(ServiceConfig::default());
    probe.create("p", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    probe.explain("p", None, None).unwrap();
    let per_session = probe.total_footprint();
    let dir = tempdir("pipeline");
    let (addr, handle) = serve(ServiceConfig {
        durability: Some(DurabilityConfig::new(&dir)),
        memory_budget: Some(per_session * 3 / 2),
        ..Default::default()
    });
    let registry = handle.registry();
    ok(addr, "POST", "/sessions/a", CREATE_BODY);
    ok(addr, "POST", "/sessions/a/explain", "");
    pipelined_delta_then_report(addr, &registry, "a", "beta");

    ok(addr, "POST", "/sessions/b", CREATE_BODY);
    ok(addr, "POST", "/sessions/b/explain", "");
    let resident: Vec<String> = registry.list().into_iter().map(|s| s.name).collect();
    assert_eq!(resident, ["b"], "the budget must have spilled \"a\"");
    pipelined_delta_then_report(addr, &registry, "a", "gamma");
    assert_eq!(registry.stats().recoveries, 1, "the delta recovered \"a\"");
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn report_reads_never_take_the_session_state_lock() {
    let (addr, handle) = serve(ServiceConfig::default());
    ok(addr, "POST", "/sessions/held", CREATE_BODY);
    let explain = ok(addr, "POST", "/sessions/held/explain", "");
    // Read from inside the session's critical section: if GET /report
    // ever waits on the state lock, the 10-second read timeout fails this.
    let registry = handle.registry();
    let report = registry
        .with_state_lock_held("held", || ok(addr, "GET", "/sessions/held/report", ""))
        .expect("session exists");
    assert_eq!(fingerprint(&report), fingerprint(&explain));
    handle.shutdown();
}

#[test]
fn a_poisoned_session_still_answers_500_on_report() {
    let (addr, handle) = serve(ServiceConfig::default());
    ok(addr, "POST", "/sessions/sick", CREATE_BODY);
    ok(addr, "POST", "/sessions/sick/explain", "");
    let registry = handle.registry();
    let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        registry.with_state_lock_held("sick", || panic!("poison the session on purpose"))
    }));
    assert!(panicked.is_err());
    let mut stream = connect(addr);
    send(&mut stream, "GET", "/sessions/sick/report", "");
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 500, "{body}");
    let json = Json::parse(&body).unwrap();
    assert_eq!(json.get("error").and_then(Json::as_str), Some("internal"));
    handle.shutdown();
}
