//! `serve_deltas` and `serve_reads`: the release `explain3d-serve` binary as
//! a child process with durability on, driven by an open-loop schedule of
//! single-op deltas and report reads over two pipelined keep-alive
//! connections, at a short ladder of fixed offered rates.
//!
//! Every session's ops travel on one connection in order, so a serial
//! in-process replay of the acknowledged deltas is exact: the final served
//! report of each session must equal it, up to the equal-objective ties
//! `check` accepts. The run then kills the server with SIGKILL, restarts it
//! on the same data directory and checks the recovered reports. The traced
//! run drives an untraced and a `--telemetry on` server side by side on
//! identical streams; the traced one must reproduce the untraced reports,
//! and for the same explanation its F-measures. It scrapes
//! `/metrics` and request traces, and replays the acknowledged deltas
//! through `ExplainSession::re_explain` one by one.

use crate::check::{explanations_of, Agreement, Claim};
use crate::explain_batch::{case_seed, D};
use crate::http::{drive, request_bytes, Conn, Done, Planned};
use crate::stats::{cpu_secs, median_of, peak_rss_mb, windowed_quantile, windowed_rate, Samples};
use crate::{Args, Metrics, Outcome, Spec, SETUP_ROUNDS};
use explain3d::datagen::rng::rngs::StdRng;
use explain3d::datagen::rng::{Rng, SeedableRng};
use explain3d::datagen::{generate_synthetic, SyntheticConfig};
use explain3d::prelude::*;
use explain3d::service::json::Json;
use explain3d::service::wire;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Load-generator connections (one thread each).
const CONNECTIONS: usize = 2;
/// Mixed into the seed for the op stream, apart from the case seeds.
const OP_STREAM: u64 = 0x0bad_5eed;
/// Request traces fetched from the traced server after the nominal rung.
const TRACE_SAMPLE: usize = 200;

/// Server flags of both serve workloads, beside `--data-dir` and
/// `--telemetry`: the binary's default group-commit fsync, one worker per
/// virtual CPU of the reference machine.
const SERVER_FLAGS: [&str; 4] = ["--threads", "2", "--fsync", "interval:16"];
/// Share of the run each rung of the rate ladder takes.
const RUNG_SHARES: [f64; 4] = [0.15, 0.5, 0.15, 0.2];
/// The rung latencies and server CPU are read at.
const NOMINAL: usize = 1;
/// Deleted tuples a session holds back for restoring, at most.
const RESTORE_POOL: usize = 8;

/// The workload's parameters from `workloads.json`.
struct Params {
    sessions: usize,
    n: usize,
    v: usize,
    /// Share of requests that are report reads; the rest are deltas.
    report_share: f64,
    /// Share of deltas that are value corrections; the rest are deletes
    /// and restores in balance.
    update_share: f64,
    /// Offered rates of the ladder's rungs, in requests per second.
    ladder: [f64; 4],
    p99_limit_ms: f64,
}

impl Params {
    fn load(spec: &Spec) -> Result<Params, String> {
        Ok(Params {
            sessions: spec.count("sessions")?,
            n: spec.count("n")?,
            v: spec.count("v")?,
            report_share: spec.num("report_share")?,
            update_share: spec.num("update_share")?,
            ladder: spec
                .nums("ladder_rps")?
                .try_into()
                .map_err(|_| "workloads.json: ladder_rps needs four rates")?,
            p99_limit_ms: spec.num("p99_limit_ms")?,
        })
    }
}

/// The primary operation whose latency the end-to-end metrics report.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Delta,
    Report,
}

/// A running `explain3d-serve` child. Dropping it kills and reaps it.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts the server on an ephemeral port; its stdout goes to a log
    /// file next to the data directory, where the bound address is read.
    fn spawn(bin: &Path, data_dir: &Path, telemetry: bool) -> Result<ServerProc, String> {
        let log_path = data_dir.with_extension("log");
        let log = std::fs::File::create(&log_path)
            .map_err(|e| format!("create {}: {e}", log_path.display()))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--data-dir"])
            .arg(data_dir)
            .args(SERVER_FLAGS)
            .args(["--telemetry", if telemetry { "on" } else { "off" }])
            .stdin(Stdio::null())
            .stdout(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc { child, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        let clock = Instant::now();
        while clock.elapsed() < Duration::from_secs(30) {
            let text = std::fs::read_to_string(&log_path).unwrap_or_default();
            let addr = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|a| a.parse().ok());
            if let Some(addr) = addr {
                server.addr = addr;
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("server exited at start-up: {status}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err("server did not report its address within 30 s".into())
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGKILL: the process dies, its page-cache writes survive.
    fn kill(mut self) -> Result<(), String> {
        self.child.kill().map_err(|e| format!("kill server: {e}"))?;
        self.child.wait().map_err(|e| format!("reap server: {e}"))?;
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Removes the run's scratch directory when the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One uploaded tuple as the load generator tracks it.
#[derive(Clone)]
struct WireTuple {
    values: Vec<Json>,
    impact: f64,
}

impl WireTuple {
    fn json(&self) -> Json {
        Json::obj().set("values", self.values.clone()).set("impact", self.impact)
    }
}

/// The generator's mirror of one session's relations, so every op it
/// emits addresses a tuple that exists when the server applies it.
#[derive(Clone)]
struct Mirror {
    sides: [Vec<WireTuple>; 2],
    deleted: Vec<(usize, WireTuple)>,
    corrections: u64,
}

/// One generated session.
struct SessionInput {
    name: String,
    create: String,
    gold: GoldStandard,
}

fn side_name(side: usize) -> &'static str {
    if side == 0 {
        "left"
    } else {
        "right"
    }
}

fn value_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Num(*f),
        Value::Str(s) => Json::Str(s.to_string()),
        Value::Bool(b) => Json::Bool(*b),
    }
}

fn type_name(t: ValueType) -> &'static str {
    match t {
        ValueType::Int => "int",
        ValueType::Float => "float",
        ValueType::Bool => "bool",
        ValueType::Str | ValueType::Unknown => "str",
    }
}

/// A canonical relation as the wire uploads it, plus its mirror.
fn relation_json(rel: &CanonicalRelation) -> (Json, Vec<WireTuple>) {
    let columns: Vec<Json> = rel
        .schema
        .columns()
        .iter()
        .map(|c| Json::Arr(vec![Json::from(c.name.as_str()), Json::from(type_name(c.ty))]))
        .collect();
    let tuples: Vec<WireTuple> = rel
        .tuples
        .iter()
        .map(|t| WireTuple {
            values: t.representative.values().iter().map(value_json).collect(),
            impact: t.impact,
        })
        .collect();
    let key: Vec<Json> = rel.key_attrs.iter().map(|k| Json::from(k.as_str())).collect();
    let json = Json::obj()
        .set("name", rel.query_name.as_str())
        .set("columns", columns)
        .set("key", key)
        .set("tuples", tuples.iter().map(WireTuple::json).collect::<Vec<_>>());
    (json, tuples)
}

/// Generates session `i`: a Section 5.3 synthetic case uploaded as its two
/// canonical relations with impacts.
fn generate_session(seed: u64, i: usize, p: &Params) -> (SessionInput, Mirror) {
    let cfg = SyntheticConfig::new(p.n, D, p.v).with_seed(case_seed(seed, i));
    let case = generate_synthetic(&cfg);
    let (left, left_tuples) = relation_json(&case.prepared.left_canonical);
    let (right, right_tuples) = relation_json(&case.prepared.right_canonical);
    let attr = case.prepared.left_canonical.key_attrs[0].as_str();
    let rattr = case.prepared.right_canonical.key_attrs[0].as_str();
    let create = Json::obj()
        .set("left", left)
        .set("right", right)
        .set("match", Json::obj().set("left", attr).set("right", rattr))
        .to_string();
    let input = SessionInput { name: format!("s{i}"), create, gold: GoldStandard::new(case.gold) };
    (input, Mirror { sides: [left_tuples, right_tuples], deleted: Vec::new(), corrections: 0 })
}

/// One request of the ladder.
struct Request {
    session: usize,
    kind: Kind,
    /// The delta body (deltas only), kept for the serial replay.
    delta: Option<String>,
    bytes: Vec<u8>,
}

/// Emits the next delta for a session: a value correction carrying an
/// impact the session has never seen, or a delete / restore keeping the
/// relation sizes within [`RESTORE_POOL`] of their start.
fn next_delta(m: &mut Mirror, rng: &mut StdRng, p: &Params) -> String {
    let op = if rng.gen_bool(p.update_share) {
        let side = rng.gen_range(0..2usize);
        let index = rng.gen_range(0..m.sides[side].len());
        m.corrections += 1;
        let t = &mut m.sides[side][index];
        // Dyadic steps keep every impact exact on the wire and distinct.
        t.impact = t.impact.floor() + 0.25 + m.corrections as f64 / 8192.0;
        Json::obj()
            .set("op", "update")
            .set("side", side_name(side))
            .set("index", index)
            .set("tuple", t.json())
    } else if !m.deleted.is_empty() && (m.deleted.len() >= RESTORE_POOL || rng.gen_bool(0.5)) {
        let (side, t) = m.deleted.swap_remove(rng.gen_range(0..m.deleted.len()));
        let json =
            Json::obj().set("op", "insert").set("side", side_name(side)).set("tuple", t.json());
        m.sides[side].push(t);
        json
    } else {
        let side = rng.gen_range(0..2usize);
        let index = rng.gen_range(0..m.sides[side].len());
        m.deleted.push((side, m.sides[side].remove(index)));
        Json::obj().set("op", "delete").set("side", side_name(side)).set("index", index)
    };
    Json::obj().set("ops", vec![op]).to_string()
}

/// Plans one rung: `count` requests at `rate`, each to a random session.
fn plan_rung(
    count: usize,
    mirrors: &mut [Mirror],
    inputs: &[SessionInput],
    rng: &mut StdRng,
    p: &Params,
) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let session = rng.gen_range(0..inputs.len());
            let name = &inputs[session].name;
            if rng.gen_bool(p.report_share) {
                let bytes = request_bytes("GET", &format!("/sessions/{name}/report"), "");
                Request { session, kind: Kind::Report, delta: None, bytes }
            } else {
                let body = next_delta(&mut mirrors[session], rng, p);
                let bytes = request_bytes("POST", &format!("/sessions/{name}/delta"), &body);
                Request { session, kind: Kind::Delta, delta: Some(body), bytes }
            }
        })
        .collect()
}

/// What one rung measured.
struct Rung {
    rate: f64,
    delta: Samples,
    report: Samples,
    /// (due time s, latency ms) of each delta and each read.
    delta_timed: Vec<(f64, f64)>,
    report_timed: Vec<(f64, f64)>,
    /// Completion times (s from the rung's start) of every request.
    completions: Vec<f64>,
    /// The rung's last due time, in seconds.
    span: f64,
    all: Samples,
    lateness: Samples,
    report_bytes: Samples,
    /// Requests completed per second while the rung was sending.
    throughput: f64,
    /// Time the last response trailed the rung's last due time.
    drain: Duration,
    failed: u64,
    trace_ids: Vec<String>,
}

impl Rung {
    /// Meets the latency limit with no growing backlog and no failures.
    fn meets(&mut self, limit_ms: f64) -> bool {
        self.failed == 0
            && self.all.quantile(0.99) <= limit_ms
            && self.drain.as_secs_f64() * 1e3 <= limit_ms
    }
}

/// Runs one rung: the requests at fixed spacing, split over the
/// connections by session, each connection on its own thread.
fn run_rung(
    addr: SocketAddr,
    reqs: &[Request],
    rate: f64,
    acked: &mut [Vec<String>],
) -> Result<Rung, String> {
    let spacing = Duration::from_secs_f64(1.0 / rate);
    let mut plans: Vec<Vec<Planned>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    let mut index: Vec<Vec<usize>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (k, r) in reqs.iter().enumerate() {
        let c = r.session % CONNECTIONS;
        plans[c].push(Planned { due: spacing * k as u32, bytes: r.bytes.clone() });
        index[c].push(k);
    }
    let last_due = spacing * reqs.len().saturating_sub(1) as u32;
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Result<Vec<Done>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> =
            plans.iter().map(|plan| s.spawn(move || drive(addr, plan, start))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("load thread panicked".into())))
            .collect()
    });
    let mut rung = Rung {
        rate,
        delta: Samples::new(),
        report: Samples::new(),
        delta_timed: Vec::new(),
        report_timed: Vec::new(),
        completions: Vec::new(),
        span: last_due.as_secs_f64(),
        all: Samples::new(),
        lateness: Samples::new(),
        report_bytes: Samples::new(),
        throughput: 0.0,
        drain: Duration::ZERO,
        failed: 0,
        trace_ids: Vec::new(),
    };
    let mut finished = Duration::ZERO;
    for (c, result) in results.into_iter().enumerate() {
        for (done, &k) in result?.iter().zip(&index[c]) {
            let r = &reqs[k];
            finished = finished.max(done.finished);
            rung.lateness.push_ms(done.lateness);
            rung.completions.push(done.finished.as_secs_f64());
            if done.status != 200 {
                rung.failed += 1;
                continue;
            }
            let ms = done.latency.as_secs_f64() * 1e3;
            let point = ((done.finished - done.latency).as_secs_f64(), ms);
            rung.all.push(ms);
            match r.kind {
                Kind::Report => {
                    rung.report.push(ms);
                    rung.report_timed.push(point);
                    rung.report_bytes.push(done.body_len as f64);
                }
                Kind::Delta => {
                    rung.delta.push(ms);
                    rung.delta_timed.push(point);
                    acked[r.session].push(r.delta.clone().ok_or("delta without body")?);
                }
            }
            if let Some(id) = &done.trace_id {
                rung.trace_ids.push(id.clone());
            }
        }
    }
    // Completions while requests were still arriving: under overload this
    // is the server's capacity, without the drain of the backlog.
    rung.throughput = windowed_rate(&rung.completions, rung.span);
    rung.drain = finished.saturating_sub(last_due);
    Ok(rung)
}

/// Everything one served run produced.
struct Served {
    server: ServerProc,
    data_dir: PathBuf,
    telemetry: bool,
    /// CPU seconds of set-up, both processes.
    setup_cpu: f64,
    /// Each session's initial explanation and its F-measures.
    explained: Vec<Claim>,
    quality: Vec<(f64, f64)>,
    rungs: Vec<Rung>,
    acked: Vec<Vec<String>>,
    claims: Vec<Claim>,
    attempted: u64,
    /// Server CPU milliseconds per request over the nominal rung.
    nominal_cpu_ms: f64,
    metrics_before: BTreeMap<String, f64>,
    metrics_after: BTreeMap<String, f64>,
    spans: BTreeMap<String, Samples>,
    dir_after_setup: u64,
    dir_after_ladder: u64,
}

fn claim_of(r: &crate::http::Response) -> Result<Claim, String> {
    Claim::from_json(&Json::parse(&r.text()).map_err(|e| format!("report JSON: {e}"))?)
}

/// Sums a Prometheus exposition per metric name (labels folded together).
fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, f64>, String> {
    let text = Conn::connect(addr)?.ok("GET", "/metrics", "")?.text();
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else { continue };
        let name = name.split('{').next().unwrap_or(name).to_string();
        if let Ok(v) = value.parse::<f64>() {
            *out.entry(name).or_insert(0.0) += v;
        }
    }
    Ok(out)
}

/// Bytes under a directory whose file name matches `pick`.
fn dir_bytes(dir: &Path, pick: &dyn Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| {
            let path = e.path();
            match e.metadata() {
                Ok(m) if m.is_dir() => dir_bytes(&path, pick),
                Ok(m) if pick(&e.file_name().to_string_lossy()) => m.len(),
                _ => 0,
            }
        })
        .sum()
}

/// Fetches the span trees of the sampled traces and collects each root
/// span's duration by name (parse, queue_wait, handle, write).
fn collect_spans(
    addr: SocketAddr,
    ids: &[String],
    spans: &mut BTreeMap<String, Samples>,
) -> Result<(), String> {
    let mut conn = Conn::connect(addr)?;
    for id in ids.iter().rev().take(TRACE_SAMPLE) {
        let r = conn.request("GET", &format!("/debug/trace/{id}"), "")?;
        if r.status != 200 {
            continue; // evicted from the ring
        }
        let json = Json::parse(&r.text()).map_err(|e| format!("trace JSON: {e}"))?;
        for span in json.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            if span.get("parent").is_some() {
                continue;
            }
            let (Some(name), Some(a), Some(b)) = (
                span.get("name").and_then(Json::as_str),
                span.get("start_us").and_then(Json::as_f64),
                span.get("end_us").and_then(Json::as_f64),
            ) else {
                continue;
            };
            spans.entry(name.to_string()).or_default().push(b - a);
        }
    }
    Ok(())
}

/// Set-up of one fresh server: generate the sessions, start the server,
/// and create and explain every session. Returns the served run with the
/// generated sessions and their mirrors.
fn set_up(
    args: &Args,
    p: &Params,
    bin: &Path,
    data_dir: PathBuf,
    telemetry: bool,
) -> Result<(Served, Vec<SessionInput>, Vec<Mirror>), String> {
    let mut inputs = Vec::with_capacity(p.sessions);
    let mut initial = Vec::with_capacity(p.sessions);
    let mut explained = Vec::with_capacity(p.sessions);
    let mut quality = Vec::with_capacity(p.sessions);
    // Set-up time is the CPU both processes spend (see `setup_s` in main).
    let cpu_before = cpu_secs("self")?;
    let server = ServerProc::spawn(bin, &data_dir, telemetry)?;
    let mut conn = Conn::connect(server.addr)?;
    for i in 0..p.sessions {
        let (s, mirror) = generate_session(args.seed, i, p);
        conn.ok("POST", &format!("/sessions/{}", s.name), &s.create)?;
        let response = conn.ok("POST", &format!("/sessions/{}/explain", s.name), "")?;
        let body = Json::parse(&response.text()).map_err(|e| format!("explain JSON: {e}"))?;
        let set = explanations_of(&body)?;
        explained.push(Claim::from_json(&body)?);
        quality.push((
            explanation_accuracy(&set, &s.gold).f_measure,
            evidence_accuracy(&set.evidence, &s.gold).f_measure,
        ));
        inputs.push(s);
        initial.push(mirror);
    }
    let setup_cpu = cpu_secs("self")? + cpu_secs(&server.pid())? - cpu_before;
    let dir_after_setup = dir_bytes(&data_dir, &|_| true);
    let metrics_before = if telemetry { scrape(server.addr)? } else { BTreeMap::new() };
    let served = Served {
        server,
        data_dir,
        telemetry,
        setup_cpu,
        explained,
        quality,
        rungs: Vec::new(),
        acked: vec![Vec::new(); inputs.len()],
        claims: Vec::new(),
        attempted: 0,
        nominal_cpu_ms: 0.0,
        metrics_before,
        metrics_after: BTreeMap::new(),
        spans: BTreeMap::new(),
        dir_after_setup,
        dir_after_ladder: 0,
    };
    Ok((served, inputs, initial))
}

/// Runs the ladder against every server. Each rung is planned once from
/// the seed and sent to every server back to back, alternating which goes
/// first, so an untraced and a traced server see identical streams under
/// the same machine conditions. Ends by reading every session's report.
fn ladder(
    args: &Args,
    p: &Params,
    arms: &mut [Served],
    inputs: &[SessionInput],
    initial: &[Mirror],
) -> Result<(), String> {
    let mut mirrors = initial.to_vec();
    let mut rng = StdRng::seed_from_u64(args.seed ^ OP_STREAM);
    for (k, (&rate, share)) in p.ladder.iter().zip(RUNG_SHARES).enumerate() {
        let count = ((rate * args.seconds * share).round() as usize).max(1);
        let reqs = plan_rung(count, &mut mirrors, inputs, &mut rng, p);
        let n = arms.len();
        for j in 0..n {
            let arm = &mut arms[if k % 2 == 0 { j } else { n - 1 - j }];
            arm.attempted += count as u64;
            let cpu = cpu_secs(&arm.server.pid())?;
            let rung = run_rung(arm.server.addr, &reqs, rate, &mut arm.acked)?;
            if k == NOMINAL {
                arm.nominal_cpu_ms = (cpu_secs(&arm.server.pid())? - cpu) * 1e3 / count as f64;
            }
            if arm.telemetry && k == NOMINAL {
                collect_spans(arm.server.addr, &rung.trace_ids, &mut arm.spans)?;
            }
            arm.rungs.push(rung);
        }
    }
    for arm in arms.iter_mut() {
        let addr = arm.server.addr;
        if arm.telemetry {
            arm.metrics_after = scrape(addr)?;
        }
        let mut conn = Conn::connect(addr)?;
        for s in inputs {
            arm.claims.push(claim_of(&conn.ok(
                "GET",
                &format!("/sessions/{}/report", s.name),
                "",
            )?)?);
        }
        arm.attempted += inputs.len() as u64;
        arm.dir_after_ladder = dir_bytes(&arm.data_dir, &|_| true);
    }
    Ok(())
}

/// The serial in-process oracle for one session: the acknowledged deltas
/// applied in order, explained once (`re_explain` equals cold).
fn oracle(input: &SessionInput, acked: &[String]) -> Result<ExplanationReport, String> {
    let create = wire::parse_create(&input.create).map_err(|e| e.to_string())?;
    let left = wire::RelationShape::of(&create.left);
    let right = wire::RelationShape::of(&create.right);
    let mut all = RelationDelta::new();
    for body in acked {
        all.ops
            .extend(wire::parse_delta(body, &left, &right).map_err(|e| e.to_string())?.delta.ops);
    }
    let mut session = ExplainSession::new(create.left, create.right, create.matches, create.config);
    session.re_explain(&all).map_err(|e| e.to_string())
}

/// Kills the server with SIGKILL, restarts it on the same data directory,
/// times until every session serves its report again, and checks each
/// recovered report against the pre-kill one. Returns the seconds taken.
fn recover(
    served: Served,
    bin: &Path,
    names: &[String],
    agreement: &mut Agreement,
    out: &mut Outcome,
) -> Result<f64, String> {
    let Served { server, data_dir, telemetry, claims, .. } = served;
    server.kill()?;
    let clock = Instant::now();
    let restarted = ServerProc::spawn(bin, &data_dir, telemetry)?;
    let mut conn = Conn::connect(restarted.addr)?;
    let mut recovered = Vec::with_capacity(names.len());
    for name in names {
        recovered.push(claim_of(&conn.ok("GET", &format!("/sessions/{name}/report"), "")?)?);
    }
    let secs = clock.elapsed().as_secs_f64();
    restarted.kill()?;
    for (name, (got, want)) in names.iter().zip(recovered.iter().zip(&claims)) {
        agreement.compare(out, &format!("{name}: recovered vs pre-kill"), got, want);
    }
    Ok(secs)
}

fn line(name: &str, value: f64, unit: &str, note: &str) -> String {
    format!("{name:<24} {value:>12.4} {unit:<6} {note}")
}

pub fn run(args: &Args, spec: &Spec, metrics: &mut Metrics) -> Result<Outcome, String> {
    let p = Params::load(spec)?;
    let bin = args.server.clone().ok_or("serve workloads need --server PATH (run.py passes it)")?;
    let kind = if args.workload == "serve_deltas" { Kind::Delta } else { Kind::Report };
    let root = args.work_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let _scratch = ScratchDir(root.clone());
    let mut out = Outcome::default();
    out.lines.push(format!(
        "{} sessions of synthetic n={} d={} v={}; ladder {:?} req/s over {:?} of the run (nominal {}), p99 limit {} ms; {} connections; nproc={}; server {}",
        p.sessions,
        p.n,
        D,
        p.v,
        p.ladder,
        RUNG_SHARES,
        p.ladder[NOMINAL],
        p.p99_limit_ms,
        CONNECTIONS,
        explain3d::parallel::max_threads(),
        SERVER_FLAGS.join(" ")
    ));

    // `setup_s` is the median over set-up rounds on fresh servers; the last
    // round's server is the one measured.
    let rounds = if args.trace { 1 } else { SETUP_ROUNDS };
    let mut setups = Vec::with_capacity(rounds);
    let mut last = None;
    for round in 0..rounds {
        drop(last.take());
        let set = set_up(args, &p, &bin, root.join(format!("data-{round}")), false)?;
        setups.push(set.0.setup_cpu);
        last = Some(set);
    }
    let (mut plain, inputs, initial) = last.ok_or("no set-up round")?;
    plain.setup_cpu = median_of(&setups);
    let mut arms = vec![plain];
    if args.trace {
        arms.push(set_up(args, &p, &bin, root.join("data-traced"), true)?.0);
    }
    ladder(args, &p, &mut arms, &inputs, &initial)?;
    let traced = if args.trace { arms.pop() } else { None };
    let mut plain = arms.pop().ok_or("no untraced server")?;
    let names: Vec<String> = inputs.iter().map(|s| s.name.clone()).collect();
    out.attempted += plain.attempted;

    // Correctness: served equals serial replay, for every session.
    let mut agreement = Agreement::default();
    let mut finals = Vec::with_capacity(inputs.len());
    for (i, input) in inputs.iter().enumerate() {
        let report = oracle(input, &plain.acked[i])?;
        let what = format!("{}: served vs serial replay", input.name);
        agreement.compare(&mut out, &what, &plain.claims[i], &Claim::of(&report));
        finals.push(report);
    }
    out.failed += plain.rungs.iter().map(|r| r.failed).sum::<u64>();

    let rss = peak_rss_mb(&plain.server.pid())?;
    let quality = |q: &[(f64, f64)]| {
        let n = q.len().max(1) as f64;
        (q.iter().map(|x| x.0).sum::<f64>() / n, q.iter().map(|x| x.1).sum::<f64>() / n)
    };
    let (explain_f1, evidence_f1) = quality(&plain.quality);
    let deltas_acked: usize = plain.acked.iter().map(Vec::len).sum();
    // The end-to-end figures: medians over time windows of the rung.
    let primary = |r: &mut Rung| {
        let points = match kind {
            Kind::Delta => &r.delta_timed,
            Kind::Report => &r.report_timed,
        };
        windowed_quantile(points, r.span, 0.5)
    };

    if !args.trace {
        let p50 = primary(&mut plain.rungs[NOMINAL]);
        metrics.set("setup_s", plain.setup_cpu);
        metrics.set("op_p50_ms", p50);
        metrics.set("cpu_ms_per_op", plain.nominal_cpu_ms);
        metrics.set("peak_rss_mb", rss);
        metrics.set("explain_f1", explain_f1);
        metrics.set("evidence_f1", evidence_f1);
        report_lines(&mut out, &mut plain, &p, rss, explain_f1, evidence_f1, deltas_acked);
        let secs = recover(plain, &bin, &names, &mut agreement, &mut out)?;
        let note = format!("({} sessions, SIGKILL + restart)", names.len());
        out.lines.push(line("recover_s", secs, "s", &note));
        return Ok(finish(out, &agreement));
    }

    // Traced run: the same streams against a --telemetry on server.
    let mut traced = traced.ok_or("no traced server")?;
    out.attempted += traced.attempted;
    for (name, (got, want)) in names.iter().zip(traced.claims.iter().zip(&plain.claims)) {
        agreement.compare(&mut out, &format!("{name}: traced vs untraced"), got, want);
    }
    for (i, name) in names.iter().enumerate() {
        let what = format!("{name}: traced vs untraced explain");
        if agreement.compare(&mut out, &what, &traced.explained[i], &plain.explained[i]) {
            out.check(traced.quality[i] == plain.quality[i], || {
                format!("{name}: traced explain scored different F-measures")
            });
        }
    }
    out.failed += traced.rungs.iter().map(|r| r.failed).sum::<u64>();
    // Overhead per rung below the overload rung, whose latencies measure
    // the backlog rather than the service.
    let mut overheads = Vec::new();
    let below_top = p.ladder.len() - 1;
    for (a, b) in plain.rungs.iter_mut().zip(traced.rungs.iter_mut()).take(below_top) {
        let (off, on) = (primary(a), primary(b));
        overheads.push((on / off - 1.0) * 100.0);
    }
    let overhead = median_of(&overheads);
    metrics.set("telemetry.overhead_pct", overhead);
    out.lines.push(line(
        "telemetry.overhead_pct",
        overhead,
        "%",
        &format!("(per rung: {overheads:.2?})"),
    ));
    out.lines.push(format!(
        "throughput_per_s off {:.1} / on {:.1} at the top rung",
        plain.rungs.last().map_or(0.0, |r| r.throughput),
        traced.rungs.last().map_or(0.0, |r| r.throughput)
    ));
    metrics.set("gen.lateness_p99_ms", plain.rungs[NOMINAL].lateness.quantile(0.99));

    service_layers(&traced, &finals, &names, metrics);
    let wal = dir_bytes(&traced.data_dir, &|n| n.starts_with("wal"));
    let snap = dir_bytes(&traced.data_dir, &|n| n.ends_with(".snap"));
    metrics.set("durability.wal_bytes", wal as f64);
    metrics.set("durability.snapshot_bytes", snap as f64);
    replay_layers(&inputs, &traced.acked, &traced.claims, &mut agreement, &mut out, metrics)?;
    let secs = recover(traced, &bin, &names, &mut agreement, &mut out)?;
    metrics.set("durability.recover_ms", secs * 1e3);
    Ok(finish(out, &agreement))
}

/// The checks every served run ends with.
fn finish(mut out: Outcome, agreement: &Agreement) -> Outcome {
    let failed = out.failed;
    out.check(failed == 0, || format!("{failed} requests failed"));
    out.lines.push(agreement.line("report agreement"));
    out
}

/// The human-readable end-to-end report of an untraced run.
fn report_lines(
    out: &mut Outcome,
    served: &mut Served,
    p: &Params,
    rss: f64,
    explain_f1: f64,
    evidence_f1: f64,
    deltas_acked: usize,
) {
    let mut max_rate = 0.0f64;
    for rung in served.rungs.iter_mut() {
        if rung.meets(p.p99_limit_ms) {
            max_rate = max_rate.max(rung.rate);
        }
        out.lines.push(format!(
            "rung {:>7.1} req/s: {} deltas (p50 {:.3} ms), {} reads (p50 {:.3} ms), all-request p99 {:.2} ms, drain {:.1} ms, {:.1} done/s, lateness p99 {:.3} ms, failed {}",
            rung.rate,
            rung.delta.len(),
            rung.delta.median(),
            rung.report.len(),
            rung.report.median(),
            rung.all.quantile(0.99),
            rung.drain.as_secs_f64() * 1e3,
            rung.throughput,
            rung.lateness.quantile(0.99),
            rung.failed
        ));
    }
    let failed: u64 = served.rungs.iter().map(|r| r.failed).sum();
    let report_bytes = mean_report_bytes(&served.rungs);
    let nominal = &mut served.rungs[NOMINAL];
    let note = format!("(CPU of set-up, benchmark and server, median of {SETUP_ROUNDS} rounds)");
    out.lines.push(line("setup_s", served.setup_cpu, "s", &note));
    out.lines.push(nominal.delta.line("delta_p50_ms", "ms", 0.5));
    out.lines.push(nominal.delta.line("delta_p99_ms", "ms", 0.99));
    out.lines.push(nominal.report.line("report_p50_ms", "ms", 0.5));
    out.lines.push(nominal.report.line("report_p99_ms", "ms", 0.99));
    out.lines.push(line(
        "max_rate_rps",
        max_rate,
        "req/s",
        &format!("(p99 limit {} ms)", p.p99_limit_ms),
    ));
    let attempted = served.attempted.max(1) as f64;
    out.lines.push(line(
        "error_ratio",
        failed as f64 / attempted,
        "ratio",
        &format!("({} attempted)", served.attempted),
    ));
    out.lines.push(line("report_bytes", report_bytes, "B", "(mean per report read)"));
    let growth = served.dir_after_ladder as f64 - served.dir_after_setup as f64;
    out.lines.push(line(
        "disk_bytes_per_delta",
        growth / deltas_acked.max(1) as f64,
        "B",
        &format!("({deltas_acked} deltas acked; WAL + snapshots)"),
    ));
    out.lines.push(line(
        "cpu_ms_per_op",
        served.nominal_cpu_ms,
        "ms",
        "(server CPU per request, nominal rung)",
    ));
    out.lines.push(line("peak_rss_mb", rss, "MiB", "(server)"));
    out.lines.push(line("explain_f1", explain_f1, "ratio", "(initial served explanations)"));
    out.lines.push(line("evidence_f1", evidence_f1, "ratio", ""));
    out.lines.push(nominal.lateness.line("gen.lateness_p99_ms", "ms", 0.99));
}

/// Service, durability and encode layers of the traced server.
fn service_layers(
    traced: &Served,
    finals: &[ExplanationReport],
    names: &[String],
    metrics: &mut Metrics,
) {
    let diff = |k: &str| {
        traced.metrics_after.get(k).copied().unwrap_or(0.0)
            - traced.metrics_before.get(k).copied().unwrap_or(0.0)
    };
    let mean = |h: &str| {
        let count = diff(&format!("{h}_count"));
        if count > 0.0 {
            diff(&format!("{h}_sum")) / count
        } else {
            0.0
        }
    };
    metrics.set("service.request_us", mean("e3d_request_us"));
    metrics.set("service.queue_wait_us", mean("e3d_queue_wait_us"));
    metrics.set("service.delta_wait_us", mean("e3d_delta_wait_us"));
    metrics.set("durability.wal_append_us", mean("e3d_wal_append_us"));
    metrics.set("durability.fsync_us", mean("e3d_fsync_us"));
    let applied = diff("e3d_registry_deltas_applied_total");
    metrics.set(
        "service.coalesced_ratio",
        if applied > 0.0 { diff("e3d_registry_coalesced_deltas_total") / applied } else { 0.0 },
    );
    metrics.set("service.shed", diff("e3d_requests_shed_total") + diff("e3d_pool_shed_total"));
    metrics.set("service.shard_contention", diff("e3d_registry_shard_contention_total"));
    let span = |name: &str| traced.spans.get(name).cloned().map_or(0.0, |mut s| s.median());
    metrics.set("service.parse_us", span("parse"));
    metrics.set("service.write_us", span("write"));

    let mut encode = Samples::new();
    for (name, report) in names.iter().zip(finals) {
        let clock = Instant::now();
        let body = wire::emit_report(name, report, 0).to_string();
        encode.push(clock.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(body);
    }
    metrics.set("service.report_encode_us", encode.median());
    metrics.set("service.report_bytes", mean_report_bytes(&traced.rungs));
}

/// Mean response bytes per report read across the ladder.
fn mean_report_bytes(rungs: &[Rung]) -> f64 {
    let (bytes, reads) = rungs.iter().fold((0.0, 0usize), |(b, n), r| {
        (b + r.report_bytes.mean() * r.report_bytes.len() as f64, n + r.report_bytes.len())
    });
    bytes / reads.max(1) as f64
}

/// Replays each session's acknowledged deltas in-process, one
/// `re_explain` per delta, timing each: the incremental layer's numbers.
/// The final report of every session must equal the served one.
fn replay_layers(
    inputs: &[SessionInput],
    acked: &[Vec<String>],
    served: &[Claim],
    agreement: &mut Agreement,
    out: &mut Outcome,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut latency = Samples::new();
    let mut stage: BTreeMap<&str, Samples> = BTreeMap::new();
    let (mut hits, mut misses, mut pair_hits, mut pair_misses, mut reused) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    let mut deltas = 0usize;
    for (i, input) in inputs.iter().enumerate() {
        let create = wire::parse_create(&input.create).map_err(|e| e.to_string())?;
        let left = wire::RelationShape::of(&create.left);
        let right = wire::RelationShape::of(&create.right);
        let mut session =
            ExplainSession::new(create.left, create.right, create.matches, create.config);
        let mut report = session.explain();
        let mut before = session.delta_stats();
        for body in &acked[i] {
            let delta = wire::parse_delta(body, &left, &right).map_err(|e| e.to_string())?.delta;
            let clock = Instant::now();
            report = session.re_explain(&delta).map_err(|e| e.to_string())?;
            latency.push_ms(clock.elapsed());
            let s = &report.stats;
            let now = session.delta_stats();
            for (key, value) in [
                ("candidate", ms(s.candidate_time)),
                ("partition", ms(s.partition_time)),
                ("solve", ms(s.solve_time)),
                ("assemble", ms(s.assemble_time)),
                ("solve_cpu", ms(s.solve_cpu_time)),
                ("max_component", ms(s.max_subproblem_time)),
                ("nodes", s.milp_nodes as f64),
                ("suboptimal", s.suboptimal_subproblems as f64),
                ("warm_lp", s.warm_lp_solves as f64),
                ("components", s.milp_count as f64),
                ("parts", s.num_subproblems as f64),
                ("steals", s.steals as f64),
                ("speedup", s.solve_cpu_time.as_secs_f64() / s.solve_time.as_secs_f64().max(1e-9)),
                ("candidates", session.candidates().len() as f64),
            ] {
                stage.entry(key).or_default().push(value);
            }
            hits += now.component_cache_hits - before.component_cache_hits;
            misses += now.component_cache_misses - before.component_cache_misses;
            pair_hits += now.pair_cache_hits - before.pair_cache_hits;
            pair_misses += now.pair_cache_misses - before.pair_cache_misses;
            reused += now.candidates_reused - before.candidates_reused;
            before = now;
            deltas += 1;
        }
        agreement.compare(
            out,
            &format!("{}: per-delta replay vs served", input.name),
            &served[i],
            &Claim::of(&report),
        );
    }
    let mut med = |k: &str| stage.get_mut(k).map_or(0.0, Samples::median);
    let ratio = |a: usize, b: usize| if a + b > 0 { a as f64 / (a + b) as f64 } else { 0.0 };
    // The stage timings are the incremental layer's own; the cold-path
    // names (`linkage.mapping_ms`, `partition.ms`, `parallel.solve_wall_ms`,
    // `core.assemble_ms`) stay 0, so each measurement is reported once.
    metrics.set("incremental.candidate_ms", med("candidate"));
    metrics.set("incremental.partition_ms", med("partition"));
    metrics.set("incremental.solve_ms", med("solve"));
    metrics.set("incremental.assemble_ms", med("assemble"));
    metrics.set("linkage.candidates", med("candidates"));
    metrics.set("partition.components", med("components"));
    metrics.set("partition.parts", med("parts"));
    metrics.set("milp.solve_cpu_ms", med("solve_cpu"));
    metrics.set("milp.max_component_ms", med("max_component"));
    metrics.set("milp.nodes", med("nodes"));
    metrics.set("milp.suboptimal", med("suboptimal"));
    metrics.set("milp.warm_lp_solves", med("warm_lp"));
    metrics.set("parallel.steals", med("steals"));
    metrics.set("parallel.speedup", med("speedup"));
    metrics.set("incremental.re_explain_p50_ms", latency.median());
    metrics.set("incremental.re_explain_p99_ms", latency.quantile(0.99));
    metrics.set("incremental.component_hit_ratio", ratio(hits, misses));
    metrics.set("incremental.component_misses", misses as f64 / deltas.max(1) as f64);
    metrics.set("incremental.candidates_reused", reused as f64 / deltas.max(1) as f64);
    metrics.set("incremental.pair_cache_hit_ratio", ratio(pair_hits, pair_misses));
    out.lines.push(latency.line("incremental.re_explain_p50_ms", "ms", 0.5));
    out.lines.push(latency.line("incremental.re_explain_p99_ms", "ms", 0.99));
    Ok(())
}
