//! A std-only, readiness-based HTTP/1.1 JSON server.
//!
//! One **event loop** (the thread that calls [`Server::run`]) owns every
//! socket: a [`Poller`] (raw `epoll`, or `poll(2)` as the portable
//! fallback) watches the nonblocking listener plus every connection fd,
//! and each connection walks a small state machine —
//!
//! ```text
//!   reading (head + body, incremental byte-bounded parse)
//!      └─ complete request ──▶ executing (on the TaskPool)
//!                                  └─ response ready ──▶ writing
//!                                                           └─ keep-alive ──▶ reading
//! ```
//!
//! Ready **requests** — never whole connections — are dispatched onto the
//! fixed [`explain3d_parallel::TaskPool`], so a slow MILP solve occupies
//! one worker while the event loop keeps serving every other socket; a
//! keep-alive connection costs a buffer, not a thread. Workers hand the
//! encoded response back through a completion queue and wake the loop via
//! a [`WakeSignal`] self-pipe. Admission control is unchanged in spirit:
//! when the pool's bounded queue is full the event loop answers
//! `429 Too Many Requests` itself (a constant-cost write) instead of
//! queueing without bound.
//!
//! ## Routes
//!
//! | Method & path                  | Meaning                                |
//! |--------------------------------|----------------------------------------|
//! | `POST /sessions/{name}`        | create a session (relation upload)     |
//! | `POST /sessions/{name}/explain`| cold explain                           |
//! | `POST /sessions/{name}/delta`  | apply a delta (coalesced under load)   |
//! | `GET /sessions/{name}/report`  | last stored report                     |
//! | `DELETE /sessions/{name}`      | drop the session                       |
//! | `GET /sessions`                | list sessions + registry stats         |
//! | `GET /healthz`                 | liveness probe                         |
//! | `GET /metrics`                 | Prometheus text exposition             |
//! | `GET /debug/trace/{id}`        | one retained trace as a span tree      |
//! | `GET /debug/slow?limit=N`      | the N slowest retained traces          |
//!
//! `{name}` is percent-decoded (`%2F` rejected), so the wire addresses
//! exactly the session a library caller names. Idle connections are
//! reaped after [`ServerConfig::io_timeout`]; a connection that went
//! silent **mid-request** is answered `408 Request Timeout` first. A
//! request executing on the pool is never timed out by the loop — MILP
//! deadlines govern it. Every parse or protocol failure becomes a typed
//! JSON error response — malformed input can never panic a worker.
//!
//! [`Poller`]: crate::poller::Poller
//! [`WakeSignal`]: explain3d_parallel::WakeSignal

use crate::error::ServiceError;
use crate::json::Json;
use crate::poller::{Backend, Event, Interest, Poller};
use crate::proto::{self, Parse, ParsedRequest};
use crate::registry::{ServiceConfig, SessionRegistry};
use crate::telemetry::TraceCtx;
use crate::wire;
use explain3d_parallel::{TaskPool, WakeSignal};
use explain3d_telemetry::{FinishedTrace, Trace, NO_PARENT};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on request body bytes; a larger body answers 413.
const MAX_BODY_BYTES: usize = 64 << 20;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing requests (not connections).
    pub threads: usize,
    /// Bounded admission queue: ready requests beyond this are shed with
    /// a 429.
    pub queue_capacity: usize,
    /// I/O timeout. Reading: how long a connection may sit without
    /// progress before it is reaped (mid-request silences answer 408
    /// first). Writing: a **total** deadline for the whole response — a
    /// peer draining one byte at a time is cut, not kept alive by its
    /// trickle. Executing requests are exempt.
    pub io_timeout: Duration,
    /// Readiness backend (`epoll` on Linux, `poll` anywhere).
    pub backend: Backend,
    /// Hard cap on concurrently open connections; beyond it, accepts are
    /// answered 429 and closed.
    pub max_connections: usize,
    /// Registry configuration (memory budget, durability, telemetry,
    /// delta recording).
    pub service: ServiceConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: explain3d_parallel::max_threads(),
            queue_capacity: 64,
            io_timeout: Duration::from_secs(10),
            backend: Backend::auto(),
            max_connections: 16384,
            service: ServiceConfig::default(),
        }
    }
}

/// A bound (but not yet accepting) server.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    registry: Arc<SessionRegistry>,
    config: ServerConfig,
}

/// Handle to a server running on a background event-loop thread.
pub struct ServerHandle {
    addr: SocketAddr,
    registry: Arc<SessionRegistry>,
    stop: Arc<AtomicBool>,
    event_thread: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and builds the registry; call
    /// [`run`](Server::run) or [`spawn`](Server::spawn) to start serving.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(SessionRegistry::new(config.service.clone()));
        Ok(Server { listener, local_addr, registry, config })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared session registry (usable in-process alongside the wire).
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Runs the event loop on the calling thread until `stop` is set, then
    /// drains: in-flight requests finish and their responses are written,
    /// and every durable session is flushed to a fresh snapshot before
    /// this returns.
    pub fn run(self, stop: &AtomicBool) {
        match EventLoop::new(self.listener, Arc::clone(&self.registry), &self.config) {
            Ok(mut event_loop) => event_loop.run(stop),
            Err(e) => eprintln!("explain3d-service: cannot start the event loop: {e}"),
        }
        // The event loop (and its pool, which drains queued jobs on drop)
        // is gone; snapshot all durable sessions so recovery needs no WAL
        // replay.
        self.registry.flush_all();
    }

    /// Spawns the event loop on a background thread and returns a handle.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr;
        let registry = Arc::clone(&self.registry);
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let event_thread = std::thread::Builder::new()
            .name("explain3d-events".into())
            .spawn(move || self.run(&stop2))
            .expect("spawning the event-loop thread");
        ServerHandle { addr, registry, stop, event_thread: Some(event_thread) }
    }
}

impl ServerHandle {
    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared registry.
    pub fn registry(&self) -> Arc<SessionRegistry> {
        Arc::clone(&self.registry)
    }

    /// Stops the event loop (in-flight requests finish first).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the parked poller with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.event_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.event_thread.take() {
            let _ = h.join();
        }
    }
}

/// Poller token of the listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Poller token of the completion wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Upper bound on the poller wait, so the stop flag (set by a signal
/// handler with nothing to connect) is honoured promptly.
const WAIT_CAP: Duration = Duration::from_millis(50);
/// How often the idle-timeout sweep walks the connection table.
const SWEEP_EVERY: Duration = Duration::from_millis(100);
/// Read chunk size per readiness event (level-triggered: leftover bytes
/// re-arm the fd, so a bounded chunk never strands data).
const READ_CHUNK: usize = 16 * 1024;

#[cfg(unix)]
fn raw_fd<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_t: &T) -> i32 {
    -1
}

/// Where a connection is in its request/response lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accumulating head + body bytes of the next request.
    Reading,
    /// A request from this connection is executing on the pool; the fd is
    /// parked (no interest) until the response comes back.
    Executing,
    /// Writing the response; the payload says what happens after.
    Writing { keep_alive: bool },
}

struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    written: usize,
    phase: Phase,
    last_activity: Instant,
    interest: Interest,
    /// When the first byte of the in-progress request arrived — the trace
    /// epoch. Taken when the request finishes parsing.
    req_start: Option<Instant>,
    /// The request's trace, parked here while its response drains so the
    /// `write` span covers the actual socket writes.
    trace: Option<TraceCarry>,
}

/// A trace riding a connection through the write phase: sealed (and
/// pushed to the ring) when the last response byte hits the socket.
struct TraceCarry {
    trace: Trace,
    route: usize,
    write_span: u32,
}

/// A finished request: the worker pushes this and notifies the wake pipe.
struct Completion {
    slot: usize,
    gen: u64,
    response: Vec<u8>,
    keep_alive: bool,
    trace: Option<(Trace, usize)>,
}

/// State shared between the event loop and the pool workers.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    wake: WakeSignal,
}

/// One connection slab slot. `gen` increments on every close, so a
/// completion for a connection that died while its request executed can
/// never be delivered to the slot's next tenant.
struct SlabEntry {
    gen: u64,
    conn: Option<Conn>,
}

struct EventLoop {
    listener: TcpListener,
    poller: Poller,
    pool: TaskPool,
    registry: Arc<SessionRegistry>,
    shared: Arc<Shared>,
    conns: Vec<SlabEntry>,
    free: Vec<usize>,
    active: usize,
    /// Requests dispatched to the pool whose completions have not been
    /// delivered yet (counts queued jobs too — every dispatched job pushes
    /// exactly one completion).
    inflight: usize,
    io_timeout: Duration,
    max_connections: usize,
    accept_paused_until: Option<Instant>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(
        listener: TcpListener,
        registry: Arc<SessionRegistry>,
        config: &ServerConfig,
    ) -> std::io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let mut poller = Poller::new(config.backend)?;
        let wake = WakeSignal::new()?;
        poller.register(raw_fd(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.register(wake.fd(), WAKE_TOKEN, Interest::READ)?;
        let pool = TaskPool::new(config.threads, config.queue_capacity);
        if let Some(tel) = registry.telemetry() {
            // Scrape-time sampling only; the pool itself stays untouched.
            tel.attach_pool(pool.monitor());
        }
        Ok(EventLoop {
            listener,
            poller,
            pool,
            registry,
            shared: Arc::new(Shared { completions: Mutex::new(Vec::new()), wake }),
            conns: Vec::new(),
            free: Vec::new(),
            active: 0,
            inflight: 0,
            io_timeout: config.io_timeout,
            max_connections: config.max_connections,
            accept_paused_until: None,
            last_sweep: Instant::now(),
        })
    }

    fn run(&mut self, stop: &AtomicBool) {
        let mut events: Vec<Event> = Vec::new();
        let mut batch: Vec<Event> = Vec::new();
        let mut draining = false;
        let mut drain_deadline = Instant::now();
        loop {
            if !draining && stop.load(Ordering::Relaxed) {
                // Graceful drain: stop accepting, finish every dispatched
                // request and flush its response, then leave. The deadline
                // bounds the drain against a stuck peer.
                draining = true;
                drain_deadline = Instant::now() + self.io_timeout;
                self.poller.deregister(raw_fd(&self.listener));
            }
            if draining {
                let flushing = self.conns.iter().any(|entry| {
                    matches!(&entry.conn, Some(c) if matches!(c.phase, Phase::Writing { .. }))
                });
                if (self.inflight == 0 && !flushing) || Instant::now() >= drain_deadline {
                    break;
                }
            }
            if self.poller.wait(&mut events, WAIT_CAP).is_err() {
                break;
            }
            let now = Instant::now();
            batch.clear();
            batch.extend(events.iter().copied());
            for ev in &batch {
                match ev.token {
                    LISTENER_TOKEN => {
                        if !draining {
                            self.accept_ready(now);
                        }
                    }
                    WAKE_TOKEN => {
                        self.shared.wake.drain();
                    }
                    token => self.conn_event(token as usize, *ev, now),
                }
            }
            self.deliver_completions(now);
            if now.duration_since(self.last_sweep) >= SWEEP_EVERY {
                self.last_sweep = now;
                self.sweep_timeouts(now);
                // Background re-attach for degraded durable sessions: idle
                // sessions heal without waiting for their next request.
                // Cheap when nothing is degraded (an atomic scan); when a
                // session does re-attach, the snapshot write happens under
                // try_lock, so a busy session is skipped, never blocked.
                self.registry.reattach_degraded();
                if self.accept_paused_until.is_some_and(|until| now >= until) {
                    self.accept_paused_until = None;
                    let _ = self.poller.register(
                        raw_fd(&self.listener),
                        LISTENER_TOKEN,
                        Interest::READ,
                    );
                }
            }
        }
    }

    // ---- accept path ----------------------------------------------------

    fn accept_ready(&mut self, now: Instant) {
        if self.accept_paused_until.is_some() {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream, now),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // EMFILE and friends: pause accepting briefly instead
                    // of spinning on a level-triggered ready listener.
                    self.poller.deregister(raw_fd(&self.listener));
                    self.accept_paused_until = Some(now + WAIT_CAP);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream, now: Instant) {
        if self.active >= self.max_connections {
            shed(stream);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        // Responses are written whole; Nagle only adds delayed-ACK stalls
        // to the small keep-alive exchanges.
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(SlabEntry { gen: 0, conn: None });
                self.conns.len() - 1
            }
        };
        if self.poller.register(raw_fd(&stream), slot as u64, Interest::READ).is_err() {
            self.free.push(slot);
            return;
        }
        self.conns[slot].conn = Some(Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            written: 0,
            phase: Phase::Reading,
            last_activity: now,
            interest: Interest::READ,
            req_start: None,
            trace: None,
        });
        self.active += 1;
    }

    // ---- connection events ----------------------------------------------

    fn conn_event(&mut self, slot: usize, ev: Event, now: Instant) {
        let Some(phase) = self.conns.get(slot).and_then(|e| e.conn.as_ref()).map(|c| c.phase)
        else {
            return;
        };
        if ev.hangup {
            self.close(slot);
            return;
        }
        if ev.readable && phase == Phase::Reading {
            self.handle_read(slot, now);
        } else if ev.writable && matches!(phase, Phase::Writing { .. }) {
            self.continue_write(slot, now);
        }
    }

    fn handle_read(&mut self, slot: usize, now: Instant) {
        let mut eof = false;
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                return;
            };
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.inbuf.extend_from_slice(&chunk[..n]);
                        conn.last_activity = now;
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(slot);
                        return;
                    }
                }
            }
        }
        self.advance_parse(slot, now, eof);
    }

    /// Parses whatever is buffered while the connection is in the reading
    /// state. At most one request is dispatched — pipelined successors
    /// stay buffered until the response is written.
    fn advance_parse(&mut self, slot: usize, now: Instant, eof: bool) {
        let parse = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                return;
            };
            if conn.phase != Phase::Reading {
                return;
            }
            if conn.req_start.is_none() && !conn.inbuf.is_empty() {
                // First byte of a new request: the trace clock starts here.
                conn.req_start = Some(now);
            }
            proto::parse_request(&conn.inbuf, MAX_BODY_BYTES)
        };
        match parse {
            Parse::NeedMore => {
                if eof {
                    let empty = self
                        .conns
                        .get_mut(slot)
                        .and_then(|e| e.conn.as_mut())
                        .map(|c| c.inbuf.is_empty())
                        .unwrap_or(true);
                    if empty {
                        // Clean EOF between requests.
                        self.close(slot);
                    } else {
                        // The peer closed mid-request: tell it (best
                        // effort — it may only have half-closed).
                        let e = ServiceError::BadRequest("truncated request".into());
                        self.respond_error(slot, e, now);
                    }
                }
            }
            Parse::Complete { request, consumed } => {
                let epoch = {
                    let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                        return;
                    };
                    conn.inbuf.drain(..consumed);
                    conn.phase = Phase::Executing;
                    conn.req_start.take().unwrap_or(now)
                };
                self.set_interest(slot, Interest::NONE);
                let trace = self.registry.telemetry().map(|tel| {
                    let mut trace = tel.begin_trace(epoch);
                    let parsed_at = trace.now_us();
                    trace.record("parse", NO_PARENT, 0, parsed_at);
                    (trace, route_index(&request))
                });
                self.dispatch(slot, request, trace, now);
            }
            Parse::Invalid(e) => self.respond_error(slot, e, now),
        }
    }

    fn dispatch(
        &mut self,
        slot: usize,
        request: ParsedRequest,
        trace: Option<(Trace, usize)>,
        now: Instant,
    ) {
        let Some(gen) = self.conns.get(slot).map(|e| e.gen) else {
            return;
        };
        let registry = Arc::clone(&self.registry);
        let shared = Arc::clone(&self.shared);
        let keep_alive = request.keep_alive;
        let queued_at = trace.as_ref().map(|(t, _)| t.now_us());
        let job = move || {
            let mut trace = trace;
            let mut handle_span = NO_PARENT;
            if let (Some((t, _)), Some(from)) = (trace.as_mut(), queued_at) {
                // The gap between dispatch and this line is time spent in
                // the pool's admission queue.
                let picked_up = t.now_us();
                t.record("queue_wait", NO_PARENT, from, picked_up);
                if let Some(tel) = registry.telemetry() {
                    tel.queue_wait_us.observe(picked_up.saturating_sub(from));
                }
                handle_span = t.start("handle", NO_PARENT);
            }
            // A panic in a handler answers 500 instead of unwinding into
            // the pool: the worker (and its session slot, which the
            // poisoned mutex marks) stays accounted for.
            let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(&request, &registry, trace.as_mut().map(|(t, _)| t), handle_span)
            }))
            .unwrap_or_else(|_| Err(ServiceError::Internal("request handler panicked".into())));
            if let Some((t, _)) = trace.as_mut() {
                t.end(handle_span);
            }
            let trace_id = trace.as_ref().map(|(t, _)| format!("{:016x}", t.id));
            let response = match routed {
                Ok(RouteReply::Json(json)) => {
                    let extra: Vec<(&str, String)> =
                        trace_id.map(|id| ("X-Trace-Id", id)).into_iter().collect();
                    proto::encode_response_with((200, "OK"), &extra, &json, keep_alive)
                }
                Ok(RouteReply::Text { content_type, body }) => {
                    let extra: Vec<(&str, String)> =
                        trace_id.map(|id| ("X-Trace-Id", id)).into_iter().collect();
                    proto::encode_text_response(
                        (200, "OK"),
                        content_type,
                        &extra,
                        &body,
                        keep_alive,
                    )
                }
                Err(e) => {
                    // Refusals that name a retry moment carry it: a strict
                    // 503 hints at the re-attach cadence, a 429 at the
                    // next admission window.
                    let retry_after = match &e {
                        ServiceError::DurabilityUnavailable(_) => Some(registry.retry_after_secs()),
                        ServiceError::Overloaded => Some(1),
                        _ => None,
                    };
                    let mut extra: Vec<(&str, String)> = retry_after
                        .map(|secs| ("Retry-After", secs.to_string()))
                        .into_iter()
                        .collect();
                    if let Some(id) = trace_id {
                        extra.push(("X-Trace-Id", id));
                    }
                    proto::encode_response_with(e.http_status(), &extra, &e.to_json(), keep_alive)
                }
            };
            if let Ok(mut queue) = shared.completions.lock() {
                queue.push(Completion { slot, gen, response, keep_alive, trace });
            }
            // Enqueue-then-notify: the loop drains the pipe before the
            // queue, so this completion is seen by the wakeup it triggers.
            shared.wake.notify();
        };
        match self.pool.try_execute(job) {
            Ok(()) => self.inflight += 1,
            Err(saturated) => {
                // Queue full: shed this request with a constant-cost 429
                // from the event loop; the connection closes after. The
                // trace (moved into the refused job) is dropped with it —
                // a shed request costs a counter bump, not a ring slot.
                drop(saturated);
                if let Some(tel) = self.registry.telemetry() {
                    tel.shed.inc();
                }
                let e = ServiceError::Overloaded;
                let response = proto::encode_response(e.http_status(), &e.to_json(), false);
                self.start_write(slot, response, false, None, now);
            }
        }
    }

    fn deliver_completions(&mut self, now: Instant) {
        let completed: Vec<Completion> = {
            let mut queue = match self.shared.completions.lock() {
                Ok(queue) => queue,
                Err(poisoned) => poisoned.into_inner(),
            };
            queue.drain(..).collect()
        };
        for c in completed {
            self.inflight = self.inflight.saturating_sub(1);
            let stale = match self.conns.get(c.slot) {
                Some(entry) => entry.gen != c.gen || entry.conn.is_none(),
                None => true,
            };
            if stale {
                continue; // the connection died while its request executed
            }
            self.start_write(c.slot, c.response, c.keep_alive, c.trace, now);
        }
    }

    // ---- response writing -----------------------------------------------

    fn respond_error(&mut self, slot: usize, e: ServiceError, now: Instant) {
        let response = proto::encode_response(e.http_status(), &e.to_json(), false);
        self.start_write(slot, response, false, None, now);
    }

    fn start_write(
        &mut self,
        slot: usize,
        response: Vec<u8>,
        keep_alive: bool,
        trace: Option<(Trace, usize)>,
        now: Instant,
    ) {
        {
            let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                return;
            };
            conn.outbuf = response;
            conn.written = 0;
            conn.phase = Phase::Writing { keep_alive };
            conn.last_activity = now;
            conn.trace = trace.map(|(mut trace, route)| {
                let write_span = trace.start("write", NO_PARENT);
                TraceCarry { trace, route, write_span }
            });
        }
        self.continue_write(slot, now);
    }

    fn continue_write(&mut self, slot: usize, now: Instant) {
        let keep_alive = loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                return;
            };
            let Phase::Writing { keep_alive } = conn.phase else { return };
            if conn.written >= conn.outbuf.len() {
                break keep_alive;
            }
            match conn.stream.write(&conn.outbuf[conn.written..]) {
                Ok(0) => {
                    self.close(slot);
                    return;
                }
                Ok(n) => {
                    // Deliberately no `last_activity` refresh: the write
                    // clock starts at `start_write`, so a peer draining
                    // the response one byte at a time cannot hold the
                    // slot open forever — the whole response must land
                    // within `io_timeout`.
                    conn.written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.set_interest(slot, Interest::WRITE);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        };
        // The whole response hit the socket: seal the trace. Total wall
        // time is measured from the same epoch every span uses, so the
        // root spans (parse, queue_wait, handle, write) tile it.
        let carry =
            self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()).and_then(|c| c.trace.take());
        if let (Some(TraceCarry { mut trace, route, write_span }), Some(tel)) =
            (carry, self.registry.telemetry())
        {
            trace.end(write_span);
            let total_us = trace.now_us();
            tel.finish_request(trace, route, total_us);
        }
        if !keep_alive {
            self.close(slot);
            return;
        }
        let has_pipelined = {
            let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
                return;
            };
            conn.outbuf.clear();
            conn.written = 0;
            conn.phase = Phase::Reading;
            !conn.inbuf.is_empty()
        };
        self.set_interest(slot, Interest::READ);
        if has_pipelined {
            // The next pipelined request is already buffered; don't wait
            // for a readiness event that may never come.
            self.advance_parse(slot, now, false);
        }
    }

    // ---- housekeeping ---------------------------------------------------

    fn sweep_timeouts(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].conn.as_ref() else { continue };
            if now.duration_since(conn.last_activity) < self.io_timeout {
                continue;
            }
            match conn.phase {
                // Executing requests answer on their own schedule (MILP
                // deadlines bound them) — never reaped here.
                Phase::Executing => {}
                Phase::Reading if conn.inbuf.is_empty() => self.close(slot),
                Phase::Reading => {
                    // Bytes arrived, then silence: the peer deserves to
                    // know before the close.
                    let e = ServiceError::Timeout("mid-request silence".into());
                    self.respond_error(slot, e, now);
                }
                Phase::Writing { .. } => self.close(slot),
            }
        }
    }

    fn set_interest(&mut self, slot: usize, want: Interest) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|e| e.conn.as_mut()) else {
            return;
        };
        if conn.interest == want {
            return;
        }
        let fd = raw_fd(&conn.stream);
        if self.poller.modify(fd, slot as u64, want).is_ok() {
            conn.interest = want;
        }
    }

    fn close(&mut self, slot: usize) {
        let Some(entry) = self.conns.get_mut(slot) else { return };
        let Some(conn) = entry.conn.take() else { return };
        entry.gen += 1;
        self.poller.deregister(raw_fd(&conn.stream));
        self.free.push(slot);
        self.active -= 1;
    }
}

/// Best-effort 429 to a connection refused at the door (connection cap).
/// The socket is fresh, so the single write fits its empty send buffer.
fn shed(stream: TcpStream) {
    let mut stream = stream;
    let _ = stream.set_nonblocking(true);
    let e = ServiceError::Overloaded;
    let _ = stream.write_all(&proto::encode_response(e.http_status(), &e.to_json(), false));
}

/// Splits `/sessions/{name}[/verb]` into its parts, percent-decoding the
/// name segment (`%2F` and malformed escapes are typed 400s).
fn session_route(path: &str) -> Result<Option<(String, Option<&str>)>, ServiceError> {
    let Some(rest) = path.strip_prefix("/sessions/") else {
        return Ok(None);
    };
    let (raw_name, verb) = match rest.split_once('/') {
        None => (rest, None),
        Some((name, verb)) if !verb.contains('/') => (name, Some(verb)),
        Some(_) => return Ok(None),
    };
    if raw_name.is_empty() {
        return Ok(None);
    }
    Ok(Some((proto::percent_decode(raw_name)?, verb)))
}

/// What a handler produced: the usual JSON document, or a verbatim body
/// (the Prometheus exposition, or a report spliced from its stored
/// encoding by [`wire::ServedReport::body`]).
enum RouteReply {
    Json(Json),
    Text { content_type: &'static str, body: String },
}

impl RouteReply {
    /// A pre-encoded JSON body, shipped verbatim.
    fn json_text(body: String) -> RouteReply {
        RouteReply::Text { content_type: "application/json", body }
    }
}

/// Index into [`crate::telemetry::ROUTES`] for a request. Label
/// cardinality stays fixed: every unrecognised path counts as `other`.
fn route_index(req: &ParsedRequest) -> usize {
    let method = req.method.as_str();
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (method, path) {
        ("GET", "/sessions") => 5,
        ("GET", "/healthz") => 6,
        ("GET", "/metrics") => 7,
        ("GET", _) if path.starts_with("/debug/") => 8,
        _ => match session_route(path) {
            Ok(Some((_, verb))) => match (method, verb) {
                ("POST", None) => 0,
                ("POST", Some("explain")) => 1,
                ("POST", Some("delta")) => 2,
                ("GET", Some("report")) => 3,
                ("DELETE", None) => 4,
                _ => 9,
            },
            _ => 9,
        },
    }
}

/// Dispatches one request against the registry. `trace`/`parent` carry
/// the request's in-flight trace (absent with telemetry off); handlers
/// that do pipeline work thread it down as a [`TraceCtx`].
fn route(
    req: &ParsedRequest,
    registry: &SessionRegistry,
    trace: Option<&mut Trace>,
    parent: u32,
) -> Result<RouteReply, ServiceError> {
    let method = req.method.as_str();
    let path = req.path.split('?').next().unwrap_or(&req.path);
    match (method, path) {
        ("GET", "/healthz") => {
            // Liveness plus the durability health gauges. Deliberately
            // cheap: atomic loads, the per-slot degraded mirror, and the
            // sharded index's read locks — no per-session state lock is
            // ever taken, so a wedged session cannot wedge the probe.
            let stats = registry.stats();
            let degraded: Vec<Json> =
                registry.degraded_names(16).into_iter().map(Json::from).collect();
            let mut json = Json::obj()
                .set("ok", true)
                .set("degraded_sessions", stats.degraded_sessions)
                .set("wal_errors", stats.wal_errors)
                .set("storage_errors", stats.storage_errors)
                .set("reattached", stats.reattached)
                .set("quarantined", stats.quarantined)
                .set("dedup_hits", stats.dedup_hits)
                .set("degraded", degraded);
            if let Some(tel) = registry.telemetry() {
                json = json.set("uptime_secs", tel.uptime_secs() as usize);
            }
            return Ok(RouteReply::Json(json));
        }
        ("GET", "/sessions") => {
            let sessions: Vec<Json> = registry
                .list()
                .into_iter()
                .map(|s| {
                    Json::obj()
                        .set("name", s.name)
                        .set("footprint_bytes", s.footprint)
                        .set("explained", s.explained)
                        .set("deltas_logged", s.deltas_logged as usize)
                })
                .collect();
            // The stats object and the /metrics exposition are generated
            // from the same sample table, so the two surfaces can never
            // drift apart.
            let mut stats = Json::obj();
            for s in registry.stats().samples() {
                stats = stats.set(s.key, s.value as usize);
            }
            return Ok(RouteReply::Json(
                Json::obj()
                    .set("sessions", sessions)
                    .set("total_footprint_bytes", registry.total_footprint())
                    .set("stats", stats),
            ));
        }
        ("GET", "/metrics") => return metrics_response(registry),
        ("GET", _) if path.starts_with("/debug/") => {
            return debug_route(registry, path, &req.path);
        }
        _ => {}
    }
    let Some((name, verb)) = session_route(path)? else {
        return Err(ServiceError::NotFound(format!("{method} {path}")));
    };
    let name = name.as_str();
    match (method, verb) {
        ("POST", None) => {
            let create = wire::parse_create(&req.body)?;
            registry.create(name, create)?;
            Ok(RouteReply::Json(Json::obj().set("created", name)))
        }
        ("DELETE", None) => {
            registry.drop_session(name)?;
            Ok(RouteReply::Json(Json::obj().set("dropped", name)))
        }
        ("POST", Some("explain")) => {
            let deadline = wire::parse_explain(&req.body)?;
            let tctx = trace.map(|trace| TraceCtx { trace, parent });
            let report = registry.explain(name, deadline, tctx)?;
            Ok(RouteReply::json_text(report.body(0, registry.durability_status(name)?, false)?))
        }
        ("POST", Some("delta")) => {
            // The shapes and the apply are two registry calls; the token
            // pins them to the same underlying session incarnation, so a
            // concurrent drop + re-create with different shapes becomes a
            // typed 409 instead of a delta parsed against stale shapes.
            let (left, right, token) = registry.shapes(name)?;
            let parsed = wire::parse_delta(&req.body, &left, &right)?;
            let tctx = trace.map(|trace| TraceCtx { trace, parent });
            let outcome = registry.delta(name, parsed, Some(token), tctx)?;
            let body = outcome.report.body(
                outcome.coalesced_with,
                outcome.durability,
                outcome.deduplicated,
            )?;
            Ok(RouteReply::json_text(body))
        }
        ("GET", Some("report")) => {
            let (report, durability) = registry.report_labelled(name)?;
            Ok(RouteReply::json_text(report.body(0, durability, false)?))
        }
        _ => Err(ServiceError::NotFound(format!("{method} {path}"))),
    }
}

/// `GET /metrics`: the registered hot-path metrics plus scrape-time
/// samples — registry lifetime stats (the same table `/sessions` renders),
/// resident footprint, uptime, and pool occupancy.
fn metrics_response(registry: &SessionRegistry) -> Result<RouteReply, ServiceError> {
    let Some(tel) = registry.telemetry() else {
        return Err(ServiceError::NotFound("telemetry is disabled".into()));
    };
    let mut exp = tel.registry().render();
    for s in registry.stats().samples() {
        if s.gauge {
            exp.gauge_sample(s.metric, "", s.help, s.value as i64);
        } else {
            exp.sample(s.metric, "", s.help, s.value);
        }
    }
    exp.gauge_sample(
        "e3d_sessions_footprint_bytes",
        "",
        "Total resident session footprint in bytes",
        registry.total_footprint() as i64,
    );
    exp.gauge_sample(
        "e3d_uptime_seconds",
        "",
        "Seconds since telemetry was armed",
        tel.uptime_secs() as i64,
    );
    if let Some(pool) = tel.pool() {
        let stats = pool.stats();
        exp.sample(
            "e3d_pool_admitted_total",
            "",
            "Requests admitted to the worker pool",
            stats.admitted as u64,
        );
        exp.sample(
            "e3d_pool_shed_total",
            "",
            "Requests refused by the pool's bounded queue",
            stats.shed as u64,
        );
        exp.sample(
            "e3d_pool_executed_total",
            "",
            "Jobs finished by a worker",
            stats.executed as u64,
        );
        exp.sample(
            "e3d_pool_respawns_total",
            "",
            "Worker recoveries after a handler panic",
            stats.respawns as u64,
        );
        exp.gauge_sample(
            "e3d_pool_queue_depth",
            "",
            "Jobs waiting in the pool's admission queue",
            pool.queued() as i64,
        );
        exp.gauge_sample("e3d_pool_threads", "", "Worker threads", pool.threads() as i64);
    }
    match exp.finish() {
        Ok(body) => {
            Ok(RouteReply::Text { content_type: "text/plain; version=0.0.4; charset=utf-8", body })
        }
        Err(dup) => Err(ServiceError::Internal(format!("duplicate metric series: {dup}"))),
    }
}

/// `GET /debug/trace/<id>` (one trace by hex id) and
/// `GET /debug/slow?limit=N` (the N slowest retained traces).
fn debug_route(
    registry: &SessionRegistry,
    path: &str,
    raw_path: &str,
) -> Result<RouteReply, ServiceError> {
    let Some(tel) = registry.telemetry() else {
        return Err(ServiceError::NotFound("telemetry is disabled".into()));
    };
    if let Some(hex) = path.strip_prefix("/debug/trace/") {
        let id = u64::from_str_radix(hex, 16)
            .map_err(|_| ServiceError::BadRequest(format!("bad trace id {hex:?}")))?;
        let trace = tel
            .ring()
            .get(id)
            .ok_or_else(|| ServiceError::NotFound(format!("trace {hex} (unknown or evicted)")))?;
        return Ok(RouteReply::Json(emit_trace(&trace)));
    }
    if path == "/debug/slow" {
        let limit = raw_path
            .split_once('?')
            .and_then(|(_, query)| query.strip_prefix("limit="))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(10)
            .min(100);
        let traces: Vec<Json> = tel.ring().slowest(limit).iter().map(|t| emit_trace(t)).collect();
        return Ok(RouteReply::Json(Json::obj().set("traces", traces)));
    }
    Err(ServiceError::NotFound(format!("GET {path}")))
}

/// Serialises one finished trace as a span tree: children name their
/// parent by span index; root spans omit the key.
fn emit_trace(trace: &FinishedTrace) -> Json {
    let spans: Vec<Json> = trace
        .spans
        .iter()
        .map(|s| {
            let mut span = Json::obj()
                .set("name", s.name)
                .set("start_us", s.start_us as usize)
                .set("end_us", s.end_us as usize);
            if s.parent != NO_PARENT {
                span = span.set("parent", s.parent as usize);
            }
            span
        })
        .collect();
    Json::obj()
        .set("trace_id", format!("{:016x}", trace.id))
        .set("total_us", trace.total_us as usize)
        .set("spans", spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_routes_parse() {
        let route = |p: &str| session_route(p).unwrap().map(|(n, v)| (n, v.map(str::to_string)));
        assert_eq!(route("/sessions/s1"), Some(("s1".into(), None)));
        assert_eq!(route("/sessions/s1/delta"), Some(("s1".into(), Some("delta".into()))));
        assert_eq!(route("/sessions/"), None);
        assert_eq!(route("/sessions/a/b/c"), None);
        assert_eq!(route("/health"), None);
        // Percent-decoding addresses the decoded name; %2F is refused.
        assert_eq!(route("/sessions/a%20b"), Some(("a b".into(), None)));
        assert!(session_route("/sessions/a%2Fb").is_err());
    }
}
