//! Fault-injection torture: `kill -9` the real `explain3d-serve` binary
//! mid-delta-storm at randomized points, restart it on the same data
//! directory, and assert every recovered session's report fingerprint is
//! byte-identical to a never-crashed in-process replay of exactly the
//! deltas the WAL acknowledged. Also pins graceful SIGTERM drain (exit 0,
//! every session flushed).

use explain3d_service::client::Client;
use explain3d_service::json::Json;
use explain3d_service::registry::{ServiceConfig, SessionRegistry};
use explain3d_service::wire;
use std::io::BufRead;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
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

/// Deterministic xorshift so failures reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The serial delta script: always-valid inserts and index-0 updates with
/// distinct keys, so any acknowledged prefix is replayable.
fn delta_body(i: usize) -> String {
    match i % 4 {
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
        2 => format!(
            r#"{{"ops": [{{"op": "update", "side": "left", "index": 0,
                 "tuple": {{"values": ["alpha"], "impact": {}.0}}}}]}}"#,
            (i % 4) + 1
        ),
        _ => format!(
            r#"{{"ops": [{{"op": "insert", "side": "right",
                 "tuple": {{"values": ["u{i}"]}}}},
                {{"op": "insert", "side": "left",
                 "tuple": {{"values": ["u{i}"]}}}}]}}"#
        ),
    }
}

/// Spawns the serve binary on an ephemeral port with the given data dir
/// and parses the bound address from its stdout banner.
fn spawn_server(data_dir: &Path, fsync: &str) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_explain3d-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            data_dir.to_str().unwrap(),
            "--fsync",
            fsync,
            "--threads",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning explain3d-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let banner = lines.next().expect("server prints its banner").expect("banner is readable");
    // "explain3d-serve: listening on 127.0.0.1:PORT (N workers, queue Q)"
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable banner {banner:?}"));
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn connect(addr: SocketAddr) -> Client {
    // The restarted server may still be recovering; retry briefly.
    for _ in 0..50 {
        if let Ok(c) = Client::connect(addr) {
            return c;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("could not connect to {addr}");
}

fn get(client: &mut Client, path: &str) -> Json {
    let (status, body) = client.request("GET", path, "").expect("GET");
    assert_eq!(status, 200, "GET {path}: {body}");
    body
}

/// Fingerprint of a never-crashed in-process run: create, explain, then
/// the first `n` deltas of the serial script.
fn oracle_fingerprint(n: usize) -> String {
    let oracle = SessionRegistry::new(ServiceConfig::default());
    oracle.create("s", wire::parse_create(CREATE_BODY).unwrap()).unwrap();
    let mut fp = wire::fingerprint_hex(&oracle.explain("s", None, None).unwrap());
    for i in 0..n {
        let (left, right, _) = oracle.shapes("s").unwrap();
        let parsed = wire::parse_delta(&delta_body(i), &left, &right).unwrap();
        fp = wire::fingerprint_hex(&oracle.delta("s", parsed, None, None).unwrap().report);
    }
    fp
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e3d-torture-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn kill_nine_mid_delta_storm_recovers_byte_identical_reports() {
    let dir = tempdir("kill9");
    let mut rng = Rng(0x5eed_cafe_f00d_0001);

    for round in 0..4 {
        // Fresh server on the same data dir; one new session per round so
        // every restart must also keep all previous rounds recoverable.
        let (mut child, addr) = spawn_server(&dir, "off");
        let session = format!("storm-{round}");
        let mut client = connect(addr);
        let (status, body) =
            client.request("POST", &format!("/sessions/{session}"), CREATE_BODY).unwrap();
        assert_eq!(status, 200, "create: {body}");
        let (status, _) =
            client.request("POST", &format!("/sessions/{session}/explain"), "").unwrap();
        assert_eq!(status, 200);

        // SIGKILL from a background thread at a randomized point in the
        // storm: the kill lands between, or in the middle of, requests.
        let kill_after = Duration::from_millis(5 + rng.next() % 60);
        let pid = child.id();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(kill_after);
            let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
        });

        // Fire the serial delta storm until the crash cuts us off.
        let mut acked = 0usize;
        for i in 0..10_000 {
            match client.request("POST", &format!("/sessions/{session}/delta"), &delta_body(i)) {
                Ok((200, _)) => acked += 1,
                Ok((status, body)) => panic!("delta {i}: status {status}: {body}"),
                Err(_) => break, // the kill landed
            }
        }
        killer.join().unwrap();
        let _ = child.wait();

        // Restart on the same data dir and compare every session recovered
        // so far against the in-process oracle.
        let (mut child2, addr2) = spawn_server(&dir, "off");
        let mut client2 = connect(addr2);
        for r in 0..=round {
            let name = format!("storm-{r}");
            // `deltas_logged` tells the oracle how many deltas of the known
            // serial order survived; every acknowledged delta must have.
            let report = get(&mut client2, &format!("/sessions/{name}/report"));
            let list = get(&mut client2, "/sessions");
            let logged = list
                .get("sessions")
                .and_then(Json::as_arr)
                .and_then(|ss| {
                    ss.iter().find(|s| s.get("name").and_then(Json::as_str) == Some(&name))
                })
                .and_then(|s| s.get("deltas_logged"))
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("session {name} missing from list"))
                as usize;
            if r == round {
                assert!(
                    logged >= acked,
                    "round {round}: {acked} deltas were acknowledged but only {logged} recovered"
                );
                assert!(
                    logged <= acked + 1,
                    "round {round}: recovered {logged} deltas but only {acked} were acknowledged \
                     (+1 in-flight at most)"
                );
            }
            let fp = report.get("fingerprint").and_then(Json::as_str).expect("fingerprint");
            assert_eq!(
                fp,
                oracle_fingerprint(logged),
                "round {round}, session {name}: recovered report diverged from a \
                 never-crashed replay of its {logged} logged deltas"
            );
        }
        let _ = Command::new("kill").args(["-9", &child2.id().to_string()]).status();
        let _ = child2.wait();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sigterm_drains_flushes_and_exits_zero() {
    let dir = tempdir("drain");
    let (mut child, addr) = spawn_server(&dir, "interval:4");
    let mut client = connect(addr);
    let (status, _) = client.request("POST", "/sessions/d", CREATE_BODY).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client.request("POST", "/sessions/d/explain", "").unwrap();
    assert_eq!(status, 200);
    let mut last_fp = String::new();
    for i in 0..7 {
        let (status, body) = client.request("POST", "/sessions/d/delta", &delta_body(i)).unwrap();
        assert_eq!(status, 200, "{body}");
        last_fp = body.get("fingerprint").and_then(Json::as_str).unwrap().to_string();
    }
    drop(client); // release the keep-alive worker before the drain

    let status = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("sending SIGTERM");
    assert!(status.success());
    let exit = child.wait().expect("server exits after SIGTERM");
    assert!(exit.success(), "graceful drain must exit 0, got {exit:?}");

    // The drain flushed a snapshot: the restarted server serves the exact
    // pre-shutdown report.
    let (mut child2, addr2) = spawn_server(&dir, "interval:4");
    let mut client2 = connect(addr2);
    let report = get(&mut client2, "/sessions/d/report");
    assert_eq!(report.get("fingerprint").and_then(Json::as_str), Some(last_fp.as_str()));
    let _ = Command::new("kill").args(["-9", &child2.id().to_string()]).status();
    let _ = child2.wait();
    std::fs::remove_dir_all(&dir).unwrap();
}
