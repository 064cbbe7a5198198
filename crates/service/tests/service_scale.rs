//! The readiness event loop under mass concurrency: the real
//! `explain3d-serve` binary holds 10,000 simultaneously open keep-alive
//! connections and serves every one of them several requests (report reads
//! plus a trickle of deltas) without a single error, and `/healthz`
//! afterwards reports no degraded sessions, WAL errors or quarantines.
//!
//! Ignored by default: both ends of every connection need a file
//! descriptor, so raise the limit first and run it explicitly:
//!
//! ```text
//! ulimit -n 65536
//! cargo test --release -p explain3d-service --test service_scale -- --include-ignored
//! ```

use explain3d_service::client::Client;
use explain3d_service::json::Json;
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::Duration;

const CONNECTIONS: usize = 10_000;
const SESSIONS: usize = 64;
const CLIENT_THREADS: usize = 8;
const ROUNDS: usize = 3;
const ROWS: usize = 12;

/// The serve binary as a child process, killed when dropped so a failing
/// assertion never leaves a server behind.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn() -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_explain3d-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "4",
                "--queue",
                "1024",
                "--max-conns",
                &(CONNECTIONS + 64).to_string(),
                "--io-timeout-ms",
                "60000",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
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
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Server { child, addr }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn create_body(s: usize) -> String {
    let tuples = |n: usize| -> String {
        (0..n).map(|i| format!("{{\"values\": [\"s{s}x{i}\"]}}")).collect::<Vec<_>>().join(",")
    };
    format!(
        "{{\"left\": {{\"name\": \"Q1\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
         \"tuples\": [{}]}}, \
         \"right\": {{\"name\": \"Q2\", \"columns\": [[\"k\", \"str\"]], \"key\": [\"k\"], \
         \"tuples\": [{}]}}, \
         \"match\": {{\"left\": \"k\", \"right\": \"k\"}}}}",
        tuples(ROWS),
        tuples(ROWS - 2),
    )
}

/// Writes `request` on the keep-alive `stream` and reads exactly one
/// response (headers plus `Content-Length` body), returning its status.
/// A bare stream rather than a [`Client`]: one descriptor per connection.
fn round_trip(stream: &mut TcpStream, request: &[u8]) -> std::io::Result<u16> {
    let eof = |what: &str| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, what.to_string());
    stream.write_all(request)?;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 2048];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof("connection closed before a full response"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..header_end]);
    let status: u16 =
        head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "no status line")
        })?;
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_string))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0);
    let mut have = buf.len() - header_end;
    while have < content_length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(eof("connection closed mid-body"));
        }
        have += n;
    }
    Ok(status)
}

/// Opens `count` connections, waits until every client thread has opened
/// all of its own, then sends each connection `ROUNDS` requests
/// round-robin. Returns (connections opened, failed requests).
fn drive(addr: SocketAddr, thread: usize, count: usize, all_open: &Barrier) -> (usize, usize) {
    let mut sockets = Vec::with_capacity(count);
    for k in 0..count {
        // Brief pacing keeps the connect storm inside the listener backlog
        // (SYN retransmits would stall for a second or more).
        if k % 100 == 99 {
            std::thread::sleep(Duration::from_millis(2));
        }
        let mut tries = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(_) if tries < 50 => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => panic!("connect #{k} failed after {tries} retries (ulimit -n?): {e}"),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        sockets.push(stream);
    }
    all_open.wait();
    let mut errors = 0;
    for round in 0..ROUNDS {
        for (k, sock) in sockets.iter_mut().enumerate() {
            let session = (thread * (CONNECTIONS / CLIENT_THREADS) + k) % SESSIONS;
            // One delta per thread per round keeps a writer in the read mix.
            let request = if k == 0 {
                let body = format!(
                    "{{\"ops\": [{{\"op\": \"insert\", \"side\": \"left\", \
                     \"tuple\": {{\"values\": [\"z{thread}r{round}\"]}}}}]}}"
                );
                format!(
                    "POST /sessions/scale{session}/delta HTTP/1.1\r\n\
                     Content-Length: {}\r\n\r\n{body}",
                    body.len()
                )
            } else {
                format!("GET /sessions/scale{session}/report HTTP/1.1\r\n\r\n")
            };
            if !matches!(round_trip(sock, request.as_bytes()), Ok(200)) {
                errors += 1;
            }
        }
    }
    (sockets.len(), errors)
}

#[test]
#[ignore = "opens 10,000 connections; needs `ulimit -n` above 10,000"]
fn ten_thousand_keep_alive_connections_are_all_served() {
    let server = Server::spawn();
    let mut setup = Client::connect(server.addr).expect("setup connect");
    for s in 0..SESSIONS {
        let (status, body) =
            setup.request("POST", &format!("/sessions/scale{s}"), &create_body(s)).expect("create");
        assert_eq!(status, 200, "create scale{s}: {body}");
        let (status, body) =
            setup.request("POST", &format!("/sessions/scale{s}/explain"), "").expect("explain");
        assert_eq!(status, 200, "explain scale{s}: {body}");
    }
    drop(setup);

    // Every connection is open before any request is sent, so the server
    // holds all of them at once for the whole request phase.
    let all_open = Barrier::new(CLIENT_THREADS);
    let per_thread = CONNECTIONS / CLIENT_THREADS;
    let (opened, errors) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let count =
                    if t == CLIENT_THREADS - 1 { CONNECTIONS - per_thread * t } else { per_thread };
                let all_open = &all_open;
                scope.spawn(move || drive(server.addr, t, count, all_open))
            })
            .collect();
        handles.into_iter().fold((0, 0), |(o, e), h| {
            let (opened, errors) = h.join().expect("client thread panicked");
            (o + opened, e + errors)
        })
    });
    assert_eq!(opened, CONNECTIONS, "not every connection opened");
    assert_eq!(errors, 0, "{errors} of {} requests failed", CONNECTIONS * ROUNDS);

    // The cheap no-session-locks endpoint still answers after the storm,
    // and a fault-free run has no durability trouble.
    let mut probe = Client::connect(server.addr).expect("healthz connect");
    let (status, body) = probe.request("GET", "/healthz", "").expect("healthz");
    assert_eq!(status, 200, "healthz after the storm: {body}");
    for key in ["degraded_sessions", "wal_errors", "quarantined"] {
        let value = body.get(key).and_then(Json::as_i64);
        assert_eq!(value, Some(0), "healthz {key}: {body}");
    }
}
