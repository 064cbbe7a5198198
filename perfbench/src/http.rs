//! A minimal HTTP/1.1 client for the benchmark: blocking request/response
//! for set-up and checks, and an open-loop sender that pipelines requests
//! on one keep-alive connection at their due times.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One decoded response.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub trace_id: Option<String>,
}

impl Response {
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The bytes of one request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Parses one complete response from the front of `buf`, returning it and
/// the bytes it used; `None` while it is still incomplete.
fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut length = 0usize;
    let mut trace_id = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| "bad Content-Length")?;
            } else if name.eq_ignore_ascii_case("x-trace-id") {
                trace_id = Some(value.trim().to_string());
            }
        }
    }
    let total = head_end + 4 + length;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((Response { status, body: buf[head_end + 4..total].to_vec(), trace_id }, total)))
}

/// A blocking keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        stream.set_write_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
        Ok(Conn { stream, buf: Vec::new() })
    }

    pub fn request(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        self.stream
            .write_all(&request_bytes(method, path, body))
            .map_err(|e| format!("{method} {path}: send: {e}"))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            if let Some((response, used)) = parse_response(&self.buf)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            let n =
                self.stream.read(&mut chunk).map_err(|e| format!("{method} {path}: recv: {e}"))?;
            if n == 0 {
                return Err(format!("{method} {path}: connection closed"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// A request that must answer 200.
    pub fn ok(&mut self, method: &str, path: &str, body: &str) -> Result<Response, String> {
        let r = self.request(method, path, body)?;
        if r.status != 200 {
            return Err(format!("{method} {path}: status {}: {}", r.status, r.text()));
        }
        Ok(r)
    }
}

/// One request of an open-loop schedule.
pub struct Planned {
    /// When it is due, from the schedule's start.
    pub due: Duration,
    pub bytes: Vec<u8>,
}

/// One completed request of an open-loop schedule.
pub struct Done {
    pub status: u16,
    /// Response completion minus due time.
    pub latency: Duration,
    /// Send time minus due time: how late the generator ran.
    pub lateness: Duration,
    /// Response completion, from the schedule's start.
    pub finished: Duration,
    pub body_len: usize,
    pub trace_id: Option<String>,
}

/// Reads are never allowed to wait longer than this for a response.
const STALL_LIMIT: Duration = Duration::from_secs(60);
/// Closer than this to a due time, the sender spins instead of sleeping.
const SPIN: Duration = Duration::from_micros(50);

/// Sends `plan` (sorted by due time) on one connection, pipelined, each
/// request at its due time relative to `start`, and times every response
/// from its due time. Responses come back in order (HTTP/1.1).
pub fn drive(addr: SocketAddr, plan: &[Planned], start: Instant) -> Result<Vec<Done>, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(STALL_LIMIT)).map_err(|e| e.to_string())?;
    let mut done = Vec::with_capacity(plan.len());
    let mut inflight: VecDeque<(Duration, Duration)> = VecDeque::new();
    let mut buf = Vec::new();
    let mut chunk = vec![0u8; 256 * 1024];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    while done.len() < plan.len() {
        while next < plan.len() && plan[next].due <= start.elapsed() {
            let sent = start.elapsed();
            stream.write_all(&plan[next].bytes).map_err(|e| format!("send: {e}"))?;
            inflight.push_back((plan[next].due, sent - plan[next].due));
            next += 1;
        }
        let wait = match plan.get(next) {
            Some(p) => p.due.saturating_sub(start.elapsed()),
            None => STALL_LIMIT,
        };
        if inflight.is_empty() || wait < SPIN {
            if wait >= SPIN {
                std::thread::sleep(wait - SPIN);
            }
            continue;
        }
        stream.set_read_timeout(Some(wait)).map_err(|e| e.to_string())?;
        match stream.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(n) => {
                let now = start.elapsed();
                buf.extend_from_slice(&chunk[..n]);
                let mut used_total = 0;
                while let Some((response, used)) = parse_response(&buf[used_total..])? {
                    used_total += used;
                    let (due, lateness) =
                        inflight.pop_front().ok_or("response without a request")?;
                    done.push(Done {
                        status: response.status,
                        latency: now - due,
                        lateness,
                        finished: now,
                        body_len: response.body.len(),
                        trace_id: response.trace_id,
                    });
                }
                buf.drain(..used_total);
                last_progress = Instant::now();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if last_progress.elapsed() >= STALL_LIMIT {
                    return Err(format!("no response for {STALL_LIMIT:?}"));
                }
            }
            Err(e) => return Err(format!("recv: {e}")),
        }
    }
    Ok(done)
}
