//! `perfbench` — the explain3d repository benchmark.
//!
//! ```text
//! perfbench --workload explain_batch|serve_deltas|serve_reads --seed N
//!           --seconds S --trace 0|1 [--server PATH] [--work-dir DIR] [--smoke]
//! ```
//!
//! Generates seeded inputs, drives one workload against the program's
//! public entry points (in-process for `explain_batch`, the release
//! `explain3d-serve` binary as a child process for `serve_*`), checks every
//! output, prints a human-readable report, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end metrics of `BENCHMARK.json`; with `--trace 1`
//! a separate, traced run reports its per-layer metrics. Workload
//! parameters live in `workloads.json`; `--smoke` swaps in its tiny sizes.
//! Exits 1 when any correctness check fails.
//!
//! `setup_s` is the CPU seconds the processes doing the set-up spend on it
//! (the benchmark, and the server for the serve workloads): work moved
//! into set-up shows, while a shared virtual machine's bursts of steal time, which move
//! the wall time of set-up by up to 70% from one run to the next, do not.

mod check;
mod explain_batch;
mod http;
mod serve;
mod stats;

use explain3d::service::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The benchmark definition: metric names and units.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
/// Workload parameters (sizes, op mix, rate ladder, smoke sizes).
const WORKLOADS: &str = include_str!("../workloads.json");

/// Set-up rounds of a run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server: Option<PathBuf>,
    pub work_dir: PathBuf,
    pub smoke: bool,
}

/// Parameters of one workload from `workloads.json`, with the `smoke`
/// overrides applied when running at smoke size.
pub struct Spec {
    base: Json,
    smoke: Option<Json>,
}

impl Spec {
    fn load(workload: &str, smoke: bool) -> Result<Spec, String> {
        let all = Json::parse(WORKLOADS).map_err(|e| format!("workloads.json: {e}"))?;
        let base = all
            .get("workloads")
            .and_then(|w| w.get(workload))
            .cloned()
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let smoke = if smoke { base.get("smoke").cloned() } else { None };
        Ok(Spec { base, smoke })
    }

    fn get(&self, key: &str) -> Result<&Json, String> {
        self.smoke
            .as_ref()
            .and_then(|s| s.get(key))
            .or_else(|| self.base.get(key))
            .ok_or_else(|| format!("workloads.json: missing {key:?}"))
    }

    pub fn num(&self, key: &str) -> Result<f64, String> {
        self.get(key)?.as_f64().ok_or_else(|| format!("workloads.json: {key:?} is not a number"))
    }

    pub fn count(&self, key: &str) -> Result<usize, String> {
        Ok(self.num(key)? as usize)
    }

    pub fn nums(&self, key: &str) -> Result<Vec<f64>, String> {
        self.get(key)?
            .as_arr()
            .and_then(|a| a.iter().map(Json::as_f64).collect())
            .ok_or_else(|| format!("workloads.json: {key:?} is not a list of numbers"))
    }
}

/// The metric names a run must report, with their units, as declared in
/// `BENCHMARK.json`. Setting an undeclared name is a bug in the benchmark.
pub struct Metrics {
    declared: Vec<(String, String)>,
    values: BTreeMap<String, f64>,
}

impl Metrics {
    fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
        let bench = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        bench
            .get(section)
            .and_then(Json::as_arr)
            .and_then(|list| {
                list.iter()
                    .map(|m| {
                        Some((
                            m.get("name")?.as_str()?.to_string(),
                            m.get("unit")?.as_str()?.to_string(),
                        ))
                    })
                    .collect()
            })
            .ok_or_else(|| format!("BENCHMARK.json: bad {section:?}"))
    }

    fn new(trace: bool) -> Result<Metrics, String> {
        let declared = Metrics::declared(if trace { "per_layer" } else { "end_to_end" })?;
        // A layer that does no work on a workload reports 0; end-to-end
        // metrics have no default and must all be measured.
        let values = if trace {
            declared.iter().map(|(n, _)| (n.clone(), 0.0)).collect()
        } else {
            BTreeMap::new()
        };
        Ok(Metrics { declared, values })
    }

    /// Records a metric of this run (ignored when it belongs to the other
    /// section — end-to-end metrics in a traced run and vice versa).
    pub fn set(&mut self, name: &str, value: f64) {
        if self.declared.iter().any(|(n, _)| n == name) {
            self.values.insert(name.to_string(), value);
        }
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.declared.len());
        for (name, unit) in &self.declared {
            let value =
                self.values.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// What a workload run hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; the run is correct when empty.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload explain_batch|serve_deltas|serve_reads --seed N \
         --seconds S --trace 0|1 [--server PATH] [--work-dir DIR] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut smoke = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage(&format!("missing value for {flag}")));
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                seed = Some(value().parse().unwrap_or_else(|_| usage("--seed takes an integer")))
            }
            "--seconds" => {
                seconds = Some(
                    value().parse::<f64>().unwrap_or_else(|_| usage("--seconds takes a number")),
                )
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            "--server" => server = Some(PathBuf::from(value())),
            "--work-dir" => work_dir = PathBuf::from(value()),
            "--smoke" => smoke = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or_else(|| usage("--seconds is required"));
    if seconds.is_nan() || seconds <= 0.0 {
        usage("--seconds must be positive");
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds,
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        server,
        work_dir,
        smoke,
    }
}

fn run(args: &Args) -> Result<(Outcome, Metrics), String> {
    let spec = Spec::load(&args.workload, args.smoke)?;
    let mut metrics = Metrics::new(args.trace)?;
    let outcome = match args.workload.as_str() {
        "explain_batch" => explain_batch::run(args, &spec, &mut metrics)?,
        "serve_deltas" | "serve_reads" => serve::run(args, &spec, &mut metrics)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok((outcome, metrics))
}

fn main() {
    let args = parse_args();
    let (outcome, metrics) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.smoke { " (smoke)" } else { "" }
    );
    for line in &outcome.lines {
        println!("  {line}");
    }
    for p in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let metrics_json = match metrics.json() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.attempted, outcome.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
