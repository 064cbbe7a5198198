//! Wire-level smoke: a real `explain3d_service::Server` on an ephemeral
//! port, driven over `std::net::TcpStream` through the scripted session
//! lifecycle, with the returned fingerprints checked byte-identical to the
//! same operations run in-process. Also pins the admission-control shed:
//! with one worker and a queue of one, a third concurrent *request* is
//! shed by the event loop with a 429 — connections are free, requests are
//! what admission control counts.

use explain3d::service::client::Client;
use explain3d::service::json::Json;
use explain3d::service::registry::{ServiceConfig, SessionRegistry};
use explain3d::service::{wire, Server, ServerConfig};
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

const DELTA_BODY: &str = r#"{"ops": [
    {"op": "insert", "side": "right", "tuple": {"values": ["gamma"]}},
    {"op": "update", "side": "left", "index": 0,
     "tuple": {"values": ["alpha"], "impact": 1.0}}
]}"#;

fn expect_ok(step: &str, result: Result<(u16, Json), impl std::fmt::Display>) -> Json {
    match result {
        Ok((200, body)) => body,
        Ok((status, body)) => panic!("{step}: status {status}: {body}"),
        Err(e) => panic!("{step}: {e}"),
    }
}

#[test]
fn scripted_lifecycle_over_tcp_matches_in_process_run() {
    // In-process oracle.
    let oracle = SessionRegistry::new(ServiceConfig::default());
    oracle.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    let oracle_explain = oracle.explain("s", None, None).unwrap();
    let (left, right, _) = oracle.shapes("s").unwrap();
    let parsed = wire::parse_delta(DELTA_BODY, &left, &right).unwrap();
    let oracle_delta = oracle.delta("s", parsed, None, None).unwrap();

    // Wire side.
    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut client = Client::connect(addr).expect("connect");
    expect_ok("create", client.request("POST", "/sessions/s", CREATE_BODY));
    let explain = expect_ok("explain", client.request("POST", "/sessions/s/explain", ""));
    assert_eq!(
        explain.get("fingerprint").and_then(Json::as_str),
        Some(wire::fingerprint_hex(&oracle_explain).as_str()),
        "explain over the wire diverged from the in-process run"
    );
    let delta = expect_ok("delta", client.request("POST", "/sessions/s/delta", DELTA_BODY));
    assert_eq!(
        delta.get("fingerprint").and_then(Json::as_str),
        Some(wire::fingerprint_hex(&oracle_delta.report).as_str()),
        "delta over the wire diverged from the in-process run"
    );
    assert!(delta.get("complete").and_then(Json::as_bool).unwrap_or(false));

    // The stored report equals the delta response; listing sees the session.
    let report = expect_ok("report", client.request("GET", "/sessions/s/report", ""));
    assert_eq!(
        report.get("fingerprint").and_then(Json::as_str),
        delta.get("fingerprint").and_then(Json::as_str)
    );
    let list = expect_ok("list", client.request("GET", "/sessions", ""));
    let sessions = list.get("sessions").and_then(Json::as_arr).unwrap();
    assert_eq!(sessions.len(), 1);
    assert_eq!(sessions[0].get("name").and_then(Json::as_str), Some("s"));
    assert!(sessions[0].get("footprint_bytes").and_then(Json::as_i64).unwrap() > 0);

    // Typed errors over the wire, connection stays usable (keep-alive).
    let (status, body) = client
        .request(
            "POST",
            "/sessions/s/delta",
            r#"{"ops": [{"op": "delete", "side": "left", "index": 99}]}"#,
        )
        .unwrap();
    assert_eq!(status, 400, "{body}");
    assert_eq!(body.get("error").and_then(Json::as_str), Some("delta_out_of_range"));
    let (status, body) =
        client.request("POST", "/sessions/s/delta", r#"{"ops": [{"op": "frobnicate"}]}"#).unwrap();
    assert_eq!(status, 400, "{body}");
    let (status, _) = client.request("POST", "/sessions/ghost/explain", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("PATCH", "/sessions/s", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("POST", "/sessions/s", CREATE_BODY).unwrap();
    assert_eq!(status, 409, "duplicate create must conflict");

    // Malformed JSON gets a 400, not a dead worker; the server still
    // answers afterwards.
    let (status, _) = client.request("POST", "/sessions/s2", "{not json").unwrap();
    assert_eq!(status, 400);
    let health = expect_ok("healthz", client.request("GET", "/healthz", ""));
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));

    expect_ok("drop", client.request("DELETE", "/sessions/s", ""));
    let (status, _) = client.request("GET", "/sessions/s/report", "").unwrap();
    assert_eq!(status, 404);

    // Close the keep-alive connection first so the worker sees EOF instead
    // of waiting out its idle read timeout during shutdown.
    drop(client);
    handle.shutdown();
}

#[test]
fn newline_free_flood_is_bounded_and_rejected() {
    use std::io::{Read, Write};
    let server = Server::bind(ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();

    // A request line with no newline: the server must stop buffering at
    // its 8192-byte line bound and answer 413 instead of growing memory
    // with the stream. (Just past the bound, so the server drains what we
    // sent and its close stays graceful — a FIN the client can read the
    // response through, not a RST.)
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&vec![b'A'; 9000]).expect("flood");
    let mut response = String::new();
    (&raw).take(256).read_to_string(&mut response).expect("read response");
    assert!(response.starts_with("HTTP/1.1 413"), "flood must be shed with 413, got {response:?}");
    drop(raw);
    handle.shutdown();
}

#[test]
fn saturated_admission_queue_sheds_with_429() {
    // One worker, queue of one: request A occupies the worker (its delta
    // waits on session `s`, whose lock this test holds, so the occupancy
    // is deterministic), request B fills the queue, request C must be
    // shed by the event loop with a 429 — and A and B still answer 200
    // once the lock is released, because shedding C never touched the
    // worker.
    let server = Server::bind(ServerConfig {
        threads: 1,
        queue_capacity: 1,
        io_timeout: Duration::from_secs(10),
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut setup = Client::connect(addr).expect("connect setup");
    expect_ok("create", setup.request("POST", "/sessions/s", CREATE_BODY));
    expect_ok("explain", setup.request("POST", "/sessions/s/explain", ""));

    let slow_delta = |tag: &'static str| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap_or_else(|e| panic!("connect {tag}: {e}"));
            client
                .request(
                    "POST",
                    "/sessions/s/delta",
                    r#"{"ops": [{"op": "insert", "side": "right", "tuple": {"values": ["gamma"]}}]}"#,
                )
                .unwrap_or_else(|e| panic!("{tag}: {e}"))
        })
    };
    let registry = handle.registry();
    let (a, b, c) = registry
        .with_state_lock_held("s", || {
            // A's job reaches the worker and waits on the held lock.
            let a = slow_delta("A");
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while registry.queued_deltas("s").unwrap() < 1 {
                assert!(std::time::Instant::now() < deadline, "A never reached the worker");
                std::thread::sleep(Duration::from_millis(1));
            }
            // B's job takes the single queue slot.
            let b = slow_delta("B");
            std::thread::sleep(Duration::from_millis(200));

            // C finds the worker busy and the queue full: shed at dispatch.
            let mut c = Client::connect(addr).expect("connect C");
            let (status, body) = c.request("GET", "/healthz", "").expect("C gets an answer");
            assert_eq!(status, 429, "saturated queue must shed: {body}");
            assert_eq!(body.get("error").and_then(Json::as_str), Some("overloaded"));
            (a, b, c)
        })
        .expect("session s exists");

    // A and B were admitted, so both must complete normally.
    let (status_a, body_a) = a.join().expect("join A");
    assert_eq!(status_a, 200, "A: {body_a}");
    let (status_b, body_b) = b.join().expect("join B");
    assert_eq!(status_b, 200, "B: {body_b}");

    // The event loop kept serving throughout: new requests still answer.
    expect_ok("healthz after shed", setup.request("GET", "/healthz", ""));
    drop(setup);
    drop(c);
    handle.shutdown();
}
