//! `explain_batch`: one caller, closed loop, each call the full three-stage
//! `explain_disagreement` on a Section 5.3 synthetic case generated during
//! set-up. The traced run re-drives every case stage by stage through the
//! public functions the pipeline is built from, and checks it reproduces
//! the untraced report (up to equal-objective ties, see `check`) and,
//! for the same explanation, its F-measures exactly.

use crate::check::{Agreement, Claim};
use crate::stats::{cpu_secs, median_of, peak_rss_mb, windowed_quantile, Samples};
use crate::{Args, Metrics, Outcome, Spec, SETUP_ROUNDS};
use explain3d::datagen::{generate_synthetic, GeneratedCase, SyntheticConfig};
use explain3d::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Difference ratio of every synthetic case (Section 5.3's d).
pub const D: f64 = 0.2;

/// Seed of case `i` of a run seeded `seed`.
pub fn case_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Quality of one explained case against the generator's gold standard.
#[derive(Clone, Copy, PartialEq)]
struct Quality {
    explanation: f64,
    evidence: f64,
}

fn quality(report: &ExplanationReport, gold: &GoldStandard) -> Quality {
    Quality {
        explanation: explanation_accuracy(&report.explanations, gold).f_measure,
        evidence: evidence_accuracy(&report.explanations.evidence, gold).f_measure,
    }
}

/// Per-stage timings and counts of one staged (traced) run.
#[derive(Default)]
struct StageTrace {
    prepare: Duration,
    mapping: Duration,
    candidates: usize,
    partition: Duration,
    components: usize,
    parts: usize,
    solve_cpu: Duration,
    max_component: Duration,
    nodes: usize,
    suboptimal: usize,
    warm_lp_solves: usize,
    solve_wall: Duration,
    steals: usize,
    assemble: Duration,
    summarize: Duration,
    targets: usize,
    total: Duration,
}

/// The three stages of `explain_disagreement`, driven one public function
/// at a time with a timer around each.
fn staged(
    case: &GeneratedCase,
    options: &ExplainOptions,
) -> Result<(ExplanationReport, StageTrace), String> {
    let mut t = StageTrace::default();
    let start = Instant::now();
    let matches = &case.attribute_matches;

    let clock = Instant::now();
    let prepared = prepare(&case.left, &case.right, matches).map_err(|e| e.to_string())?;
    t.prepare = clock.elapsed();
    let (left, right) = (&prepared.left_canonical, &prepared.right_canonical);

    let clock = Instant::now();
    let mapping = build_initial_mapping(left, right, matches, &options.mapping, None);
    t.mapping = clock.elapsed();
    t.candidates = mapping.len();

    let config = &options.pipeline;
    let clock = Instant::now();
    let (jobs, meta) = component_jobs(config.strategy, left, right, &mapping);
    t.partition = clock.elapsed();
    t.components = jobs.len();
    t.parts = meta.part_sizes.len();

    let relation = matches.mapping_relation();
    let clock = Instant::now();
    let (outcomes, sched) = explain3d::parallel::par_map_stealing_weighted(
        jobs,
        config.requested_threads(),
        |(_, sub)| sub.size().max(1),
        |(part, sub)| (part, solve_component(left, right, relation, config, &sub, None)),
    );
    t.solve_wall = clock.elapsed();
    t.steals = sched.steals;
    for (_, o) in &outcomes {
        t.solve_cpu += o.solve_time;
        t.max_component = t.max_component.max(o.solve_time);
        t.nodes += o.nodes;
        t.suboptimal += o.suboptimal;
        t.warm_lp_solves += o.warm_lp_solves;
    }

    let clock = Instant::now();
    let report = assemble_report(left, right, matches, &mapping, config, &meta, outcomes);
    t.assemble = clock.elapsed();

    let clock = Instant::now();
    let ls = summarize_side(&report.explanations, Side::Left, left, &options.summarizer);
    let rs = summarize_side(&report.explanations, Side::Right, right, &options.summarizer);
    t.summarize = clock.elapsed();
    t.targets = ls.num_targets + rs.num_targets;
    t.total = start.elapsed();
    black_box((ls, rs));
    Ok((report, t))
}

pub fn run(args: &Args, spec: &Spec, metrics: &mut Metrics) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let n = spec.count("n")?;
    let v = spec.count("v")?;
    let num_cases = spec.count("cases")?;

    // Set-up: generate every case (data, Stage-1 output, gold) up front,
    // timed in CPU seconds (see `setup_s` in main), in rounds; the last
    // round's cases are used.
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut cases: Vec<GeneratedCase> = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        cases.clear();
        let cpu = cpu_secs("self")?;
        cases.extend((0..num_cases).map(|i| {
            generate_synthetic(&SyntheticConfig::new(n, D, v).with_seed(case_seed(args.seed, i)))
        }));
        setups.push(cpu_secs("self")? - cpu);
    }
    let setup_cpu = median_of(&setups);
    let golds: Vec<GoldStandard> =
        cases.iter().map(|c| GoldStandard::new(c.gold.clone())).collect();
    let options = ExplainOptions::default();
    out.lines.push(format!(
        "synthetic n={n} d={D} v={v}, {num_cases} cases, threads={}",
        explain3d::parallel::max_threads()
    ));
    metrics.set("setup_s", setup_cpu);

    // Closed loop for --seconds, cycling through the cases. The first
    // explanation of each case fixes its fingerprint and quality; every
    // later call on the case must reproduce the fingerprint.
    let mut latency = Samples::new();
    // (start, latency ms) of every untraced call.
    let mut timed = Vec::new();
    let mut first: Vec<Option<(Claim, Quality)>> = vec![None; num_cases];
    let mut agreement = Agreement::default();
    let mut staged_overhead = Samples::new();
    let mut layer: Vec<StageTrace> = Vec::new();
    let deadline = Duration::from_secs_f64(args.seconds);
    let loop_start = Instant::now();
    let cpu_start = cpu_secs("self")?;
    let mut i = 0usize;
    // Every case runs at least once; then the loop runs out the clock.
    while i < num_cases || loop_start.elapsed() < deadline {
        let k = i % num_cases;
        let case = &cases[k];
        let clock = Instant::now();
        let outcome =
            explain_disagreement(&case.left, &case.right, &case.attribute_matches, &options);
        let took = clock.elapsed();
        let outcome = black_box(outcome).map_err(|e| format!("case {k}: {e}"))?;
        out.attempted += 1;
        out.check(outcome.report.complete, || format!("case {k}: report is not complete"));
        let claim = Claim::of(&outcome.report);
        let q = quality(&outcome.report, &golds[k]);
        match &first[k] {
            None => first[k] = Some((claim.clone(), q)),
            Some((reference, _)) => {
                agreement.compare(&mut out, &format!("case {k} repeated"), &claim, reference);
            }
        }
        if args.trace {
            let (report, t) = staged(case, &options)?;
            let what = format!("case {k} staged");
            if agreement.compare(&mut out, &what, &Claim::of(&report), &claim) {
                out.check(quality(&report, &golds[k]) == q, || {
                    format!("case {k}: staged F-measure differs")
                });
            }
            staged_overhead.push((t.total.as_secs_f64() / took.as_secs_f64() - 1.0) * 100.0);
            layer.push(t);
        } else {
            latency.push_ms(took);
            let started = (clock - loop_start).as_secs_f64();
            timed.push((started, took.as_secs_f64() * 1e3));
        }
        i += 1;
    }
    let loop_secs = loop_start.elapsed().as_secs_f64();
    let cpu_ms_per_call = (cpu_secs("self")? - cpu_start) * 1e3 / out.attempted as f64;

    let qualities: Vec<Quality> = first.iter().flatten().map(|(_, q)| *q).collect();
    let mean =
        |f: fn(&Quality) -> f64| qualities.iter().map(f).sum::<f64>() / qualities.len() as f64;
    let (explain_f1, evidence_f1) = (mean(|q| q.explanation), mean(|q| q.evidence));

    if args.trace {
        // Telemetry does no work here, so `telemetry.overhead_pct` stays 0;
        // the staged run's extra time is a report line.
        layer_metrics(&mut layer, metrics);
        out.lines.push(format!(
            "{:<24} {:>12.4} {:<6} (n={}; quartiles {:.2} .. {:.2})",
            "staged_overhead_pct",
            staged_overhead.median(),
            "%",
            staged_overhead.len(),
            staged_overhead.quantile(0.25),
            staged_overhead.quantile(0.75)
        ));
    } else {
        let rss = peak_rss_mb("self")?;
        metrics.set("op_p50_ms", windowed_quantile(&timed, loop_secs, 0.5));
        metrics.set("cpu_ms_per_op", cpu_ms_per_call);
        metrics.set("peak_rss_mb", rss);
        metrics.set("explain_f1", explain_f1);
        metrics.set("evidence_f1", evidence_f1);
        out.lines.push(format!(
            "{:<24} {:>12.4} {:<6} (CPU of set-up, median of {SETUP_ROUNDS} rounds)",
            "setup_s", setup_cpu, "s"
        ));
        out.lines.push(latency.line("explain_p50_ms", "ms", 0.5));
        out.lines.push(latency.line("explain_p90_ms", "ms", 0.9));
        out.lines.push(format!(
            "{:<24} {:>12.4} {:<6}",
            "explains_per_s",
            out.attempted as f64 / loop_secs,
            "1/s"
        ));
        out.lines.push(format!("{:<24} {:>12.4} {:<6}", "cpu_ms_per_op", cpu_ms_per_call, "ms"));
        out.lines.push(format!("{:<24} {:>12.4} {:<6}", "peak_rss_mb", rss, "MiB"));
    }
    out.lines.push(format!(
        "{:<24} {:>12.4} {:<6} ({} cases)",
        "explain_f1",
        explain_f1,
        "ratio",
        qualities.len()
    ));
    out.lines.push(format!(
        "{:<24} {:>12.4} {:<6} ({} cases)",
        "evidence_f1",
        evidence_f1,
        "ratio",
        qualities.len()
    ));
    out.lines.push(format!(
        "{:<24} {:>12.4} {:<6} ({} calls)",
        "error_ratio", 0.0, "ratio", out.attempted
    ));
    out.lines.push(agreement.line("report agreement"));
    Ok(out)
}

/// Per-layer medians over the staged runs.
fn layer_metrics(traces: &mut [StageTrace], metrics: &mut Metrics) {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let med = |f: &dyn Fn(&StageTrace) -> f64| {
        let mut s = Samples::new();
        for t in traces.iter() {
            s.push(f(t));
        }
        s.median()
    };
    metrics.set("core.prepare_ms", med(&|t| ms(t.prepare)));
    metrics.set("linkage.mapping_ms", med(&|t| ms(t.mapping)));
    metrics.set("linkage.candidates", med(&|t| t.candidates as f64));
    metrics.set("partition.ms", med(&|t| ms(t.partition)));
    metrics.set("partition.components", med(&|t| t.components as f64));
    metrics.set("partition.parts", med(&|t| t.parts as f64));
    metrics.set("milp.solve_cpu_ms", med(&|t| ms(t.solve_cpu)));
    metrics.set("milp.max_component_ms", med(&|t| ms(t.max_component)));
    metrics.set("milp.nodes", med(&|t| t.nodes as f64));
    metrics.set("milp.suboptimal", med(&|t| t.suboptimal as f64));
    metrics.set("milp.warm_lp_solves", med(&|t| t.warm_lp_solves as f64));
    metrics.set("parallel.solve_wall_ms", med(&|t| ms(t.solve_wall)));
    metrics.set("parallel.steals", med(&|t| t.steals as f64));
    metrics.set(
        "parallel.speedup",
        med(&|t| t.solve_cpu.as_secs_f64() / t.solve_wall.as_secs_f64().max(1e-9)),
    );
    metrics.set("core.assemble_ms", med(&|t| ms(t.assemble)));
    metrics.set("summarize.ms", med(&|t| ms(t.summarize)));
    metrics.set("summarize.targets", med(&|t| t.targets as f64));
}
