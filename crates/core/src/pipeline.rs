//! The Explain3D pipeline: Stage 2 orchestration with optional
//! smart partitioning (Sections 3.2 and 4).
//!
//! Given two canonical relations, the attribute matches, and the initial
//! tuple mapping, the pipeline
//!
//! 1. builds the bipartite mapping graph,
//! 2. splits it according to the configured [`PartitioningStrategy`]: one
//!    part per connected component, splitting only components larger than
//!    the batch,
//! 3. solves each part — exactly by enumeration when it has at most
//!    `EXACT_MAX_MATCHES` matches, else by encoding and solving its MILP,
//! 4. merges the decoded explanations and scores the result.

use crate::attr_match::AttributeMatches;
use crate::canonical::CanonicalRelation;
use crate::encode::{exact_solution, solve_subproblem, SubProblem};
use crate::explanation::ExplanationSet;
use crate::probability::{log_probability, ProbabilityParams};
use explain3d_linkage::TupleMapping;
use explain3d_milp::prelude::MilpConfig;
use explain3d_partition::{smart_partition, MappingGraph, SmartPartitionConfig};
use std::time::{Duration, Instant};

/// How Stage 2 splits the problem before encoding MILPs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitioningStrategy {
    /// The basic algorithm: a single MILP over the whole problem (the
    /// paper's NOOPT configuration).
    None,
    /// Split into maximal connected components of the mapping graph (exact,
    /// but no size guarantee — Section 4's motivating observation).
    ConnectedComponents,
    /// Smart partitioning (Algorithm 3) with the given batch size: one
    /// part per connected component of at most `batch` tuples; a larger
    /// component is split along low-weight edges into parts of at most
    /// `batch` (unless one high-probability cluster is itself larger).
    Smart {
        /// Maximum number of tuples per partition.
        batch_size: usize,
    },
}

/// Configuration of the Explain3D pipeline.
#[derive(Debug, Clone)]
pub struct Explain3DConfig {
    /// Prior parameters of the probability model.
    pub params: ProbabilityParams,
    /// Partitioning strategy for Stage 2.
    pub strategy: PartitioningStrategy,
    /// MILP solver configuration (per sub-problem).
    pub milp: MilpConfig,
    /// Worker threads for the solve phase: `None` uses every available
    /// core, `Some(n)` uses `n` (at least one; `Some(1)` is sequential).
    ///
    /// The thread count never changes a report. Partitioning produces
    /// independent sub-problems by construction and results are merged in
    /// partition order, and the MILP search is deterministic: [`MilpConfig`]
    /// bounds it with a per-model *node budget* derived from
    /// [`MilpConfig::deadline`], and the solver has no wall-clock limit. So
    /// parallel and sequential runs return byte-identical reports even
    /// under thread contention (see `tests/perf_equivalence.rs`).
    pub threads: Option<usize>,
}

impl Default for Explain3DConfig {
    fn default() -> Self {
        Explain3DConfig {
            params: ProbabilityParams::default(),
            strategy: PartitioningStrategy::Smart { batch_size: 1000 },
            milp: MilpConfig::default(),
            threads: None,
        }
    }
}

impl Explain3DConfig {
    /// The basic (un-partitioned) configuration.
    pub fn no_opt() -> Self {
        Explain3DConfig { strategy: PartitioningStrategy::None, ..Default::default() }
    }

    /// Connected-component splitting only.
    pub fn connected_components() -> Self {
        Explain3DConfig {
            strategy: PartitioningStrategy::ConnectedComponents,
            ..Default::default()
        }
    }

    /// Smart partitioning with the given batch size.
    pub fn batched(batch_size: usize) -> Self {
        Explain3DConfig {
            strategy: PartitioningStrategy::Smart { batch_size },
            ..Default::default()
        }
    }

    /// Overrides the probability parameters.
    pub fn with_params(mut self, params: ProbabilityParams) -> Self {
        self.params = params;
        self
    }

    /// Overrides the MILP configuration.
    pub fn with_milp(mut self, milp: MilpConfig) -> Self {
        self.milp = milp;
        self
    }

    /// Uses exactly `threads` worker threads for the solve phase
    /// (`threads <= 1` disables concurrency).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The worker-thread count this configuration requests.
    pub fn requested_threads(&self) -> usize {
        self.threads.unwrap_or_else(explain3d_parallel::max_threads).max(1)
    }
}

/// Cache and delta statistics of an *incremental* re-explanation
/// ([`crate::pipeline::PipelineStats::delta`]). All counters are
/// **cumulative over the owning session's lifetime**, so across successive
/// `re_explain` calls every field is monotone non-decreasing — the
/// invariant `tests/incremental_equivalence.rs` pins. A cold (from-scratch)
/// pipeline run reports all-zero `DeltaStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Always 0: the pair-similarity score cache was removed. Kept only
    /// for readers that still sum it; slated for deletion.
    pub pair_cache_misses: usize,
    /// Always 0: the pair-similarity score cache was removed. Kept only
    /// for readers that still sum it; slated for deletion.
    pub pair_cache_hits: usize,
    /// Candidates carried over from the previous run without touching the
    /// scorer at all (neither endpoint's representative row changed).
    pub candidates_reused: usize,
    /// Sub-problem components answered verbatim from the solution cache.
    pub component_cache_hits: usize,
    /// Sub-problem components that had to be (re-)solved.
    pub component_cache_misses: usize,
}

/// Timing and size statistics for a pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineStats {
    /// Time spent generating / refreshing the candidate pair set. Zero for
    /// the stateless [`Explain3D::explain`] path (candidate generation is
    /// Stage 1, outside this solver); the incremental session fills it.
    pub candidate_time: Duration,
    /// Time spent partitioning the mapping graph.
    pub partition_time: Duration,
    /// Time spent merging per-component outcomes into the final report
    /// ([`assemble_report`] — normalisation, scoring, completeness check).
    pub assemble_time: Duration,
    /// Wall-clock time of the encode-and-solve phase. With more than one
    /// thread this is the span of the whole concurrent phase, which on a
    /// multi-core machine is smaller than
    /// [`solve_cpu_time`](PipelineStats::solve_cpu_time).
    pub solve_time: Duration,
    /// Total wall-clock time of the pipeline.
    pub total_time: Duration,
    /// Per-sub-problem encode+solve time summed across all sub-problems
    /// (i.e. the work a sequential run would serialise). The ratio
    /// `solve_cpu_time / solve_time` approximates the parallel speedup.
    pub solve_cpu_time: Duration,
    /// Encode+solve time of the slowest single part. A part is one
    /// connected component (or a connected piece of a split one; under
    /// `None`, the whole problem), so this is the slowest single component:
    /// the lower bound on `solve_time` no amount of parallelism can beat.
    pub max_subproblem_time: Duration,
    /// Worker threads used for the solve phase (1 when sequential).
    pub threads: usize,
    /// Number of parts: connected components plus the extra pieces of split
    /// components (1 under `None`).
    pub num_subproblems: usize,
    /// Connected components the smart partitioner had to split across parts
    /// because they exceeded the batch bound (0 for other strategies).
    pub split_components: usize,
    /// Smart-partition parts exceeding the batch bound because a single
    /// high-probability cluster is larger than the batch itself (0 for
    /// other strategies).
    pub oversized_parts: usize,
    /// Size (tuples) of the largest sub-problem.
    pub max_subproblem_size: usize,
    /// Total branch-and-bound nodes across all MILPs.
    pub milp_nodes: usize,
    /// Jobs solved, by enumeration or MILP. Every part is one job (a
    /// connected component, a connected piece of a split one, or under
    /// `None` the whole problem), so this equals
    /// [`num_subproblems`](PipelineStats::num_subproblems).
    pub milp_count: usize,
    /// Number of MILPs that hit a limit before proving optimality (their
    /// solutions are feasible but possibly sub-optimal).
    pub suboptimal_subproblems: usize,
    /// Components executed by a worker other than the one they were dealt
    /// to by the work-stealing Stage-2 scheduler (0 for sequential runs).
    pub steals: usize,
    /// LP relaxations re-solved warm from a parent basis across all MILPs.
    pub warm_lp_solves: usize,
    /// Incremental-re-explanation cache statistics (all zero for a cold,
    /// from-scratch run).
    pub delta: DeltaStats,
}

/// The result of an Explain3D run.
#[derive(Debug, Clone)]
pub struct ExplanationReport {
    /// The derived explanations and evidence mapping.
    pub explanations: ExplanationSet,
    /// Log-probability score of the explanations (Equation 6).
    pub log_probability: f64,
    /// Whether the merged explanations satisfy the completeness property.
    pub complete: bool,
    /// Pipeline statistics.
    pub stats: PipelineStats,
}

/// The Explain3D Stage-2 solver.
#[derive(Debug, Clone, Default)]
pub struct Explain3D {
    config: Explain3DConfig,
}

impl Explain3D {
    /// Creates a solver with the given configuration.
    pub fn new(config: Explain3DConfig) -> Self {
        Explain3D { config }
    }

    /// Creates a solver with the default configuration (smart partitioning,
    /// batch size 1000).
    pub fn with_defaults() -> Self {
        Explain3D::default()
    }

    /// The configuration.
    pub fn config(&self) -> &Explain3DConfig {
        &self.config
    }

    /// Runs Stage 2 on canonical relations and an initial tuple mapping,
    /// returning the optimal (or best-found) explanations.
    pub fn explain(
        &self,
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        matches: &AttributeMatches,
        mapping: &TupleMapping,
    ) -> ExplanationReport {
        let start = Instant::now();
        let relation = matches.mapping_relation();

        let partition_start = Instant::now();
        let (jobs, meta) = component_jobs(self.config.strategy, left, right, mapping);
        let partition_time = partition_start.elapsed();

        // Solve the components on the work-stealing pool. They are
        // independent by construction and results come back in input order,
        // so the merge below is identical to a sequential loop over the
        // jobs — one huge component keeps only one worker busy while the
        // rest of the pool drains the others.
        let solve_start = Instant::now();
        let requested = self.config.requested_threads();
        let threads = requested.min(jobs.len()).max(1);
        let config = &self.config;
        let (outcomes, sched): (Vec<(usize, ComponentOutcome)>, _) =
            explain3d_parallel::par_map_stealing_weighted(
                jobs,
                requested,
                |(_, sub)| sub.size().max(1),
                |(part, sub)| (part, solve_component(left, right, relation, config, &sub, None)),
            );

        let mut report =
            assemble_report(left, right, matches, mapping, &self.config, &meta, outcomes);
        report.stats.threads = threads;
        report.stats.steals = sched.steals;
        report.stats.partition_time = partition_time;
        report.stats.solve_time = solve_start.elapsed();
        report.stats.total_time = start.elapsed();
        report
    }

    /// Convenience wrapper that solves a single prepared sub-problem
    /// (used by tests and the baselines).
    pub fn explain_subproblem(
        &self,
        left: &CanonicalRelation,
        right: &CanonicalRelation,
        matches: &AttributeMatches,
        sub: &SubProblem,
    ) -> ExplanationSet {
        let relation = matches.mapping_relation();
        let (explanations, _) =
            solve_subproblem(left, right, relation, &self.config.params, sub, &self.config.milp);
        explanations
    }
}

/// Partition-phase metadata: per-part sizes plus the splitter diagnostics.
/// Produced by [`component_jobs`] alongside the job list; consumed by
/// [`assemble_report`] so the cold pipeline and the incremental
/// re-explanation path fold statistics identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PartitionMeta {
    /// Size (tuples) of each part, in job order. Under `ConnectedComponents`
    /// and `Smart` a part is a connected component or one piece of a split
    /// one.
    pub part_sizes: Vec<usize>,
    /// Components larger than the batch that the smart partitioner split.
    pub split_components: usize,
    /// Parts exceeding the batch bound (unsplittable clusters).
    pub oversized_parts: usize,
}

/// Splits the problem into per-part *component* jobs according to the
/// strategy — the partition phase of [`Explain3D::explain`], exposed so the
/// incremental re-explanation subsystem derives **exactly** the job list a
/// cold run would solve (the byte-identity invariant hinges on it).
///
/// `ConnectedComponents` and `Smart` share one loop: [`smart_partition`]
/// with a batch bound of `usize::MAX` or `batch_size`. Every connected
/// component within the bound is one part and one job, so with no
/// oversized component the two strategies give the same job list and
/// byte-identical reports. Jobs are `(part index, component)` pairs in
/// component order (by smallest global node id), a function of the mapping
/// graph alone.
pub fn component_jobs(
    strategy: PartitioningStrategy,
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    mapping: &TupleMapping,
) -> (Vec<(usize, SubProblem)>, PartitionMeta) {
    let mut meta = PartitionMeta::default();
    let batch_size = match strategy {
        PartitioningStrategy::None => {
            let sub = SubProblem::full(left, right, mapping);
            if sub.size() == 0 {
                return (Vec::new(), meta);
            }
            meta.part_sizes.push(sub.size());
            return (vec![(0, sub)], meta);
        }
        PartitioningStrategy::ConnectedComponents => usize::MAX,
        PartitioningStrategy::Smart { batch_size } => batch_size,
    };

    // Build the bipartite mapping graph.
    let mut graph = MappingGraph::new(left.len(), right.len());
    for m in mapping.matches() {
        if m.left < left.len() && m.right < right.len() {
            graph.add_edge(m.left, m.right, m.prob);
        }
    }

    let split = smart_partition(&graph, &SmartPartitionConfig::with_batch_size(batch_size));
    meta.split_components = split.split_components;
    meta.oversized_parts = split.oversized_parts.len();
    meta.part_sizes = split.parts.iter().map(|c| c.size()).collect();
    let jobs = split
        .parts
        .iter()
        .enumerate()
        .map(|(part, component)| (part, component_to_subproblem(component, mapping)))
        .collect();
    (jobs, meta)
}

/// Merges per-component outcomes into the final report — the deterministic
/// tail of [`Explain3D::explain`], shared with the incremental path so a
/// re-explanation that substitutes cached outcomes for solves assembles a
/// byte-identical report. Outcomes must arrive in job order (the
/// work-stealing scheduler preserves input order). Timing fields
/// (`partition_time`, `solve_time`, `total_time`, `candidate_time`) and
/// scheduler fields (`threads`, `steals`) are left at their defaults for
/// the caller to fill; `assemble_time` is measured here.
pub fn assemble_report(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    matches: &AttributeMatches,
    mapping: &TupleMapping,
    config: &Explain3DConfig,
    meta: &PartitionMeta,
    outcomes: Vec<(usize, ComponentOutcome)>,
) -> ExplanationReport {
    let relation = matches.mapping_relation();
    let mut merged = ExplanationSet::new();
    let mut stats = PipelineStats {
        split_components: meta.split_components,
        oversized_parts: meta.oversized_parts,
        num_subproblems: meta.part_sizes.len(),
        max_subproblem_size: meta.part_sizes.iter().copied().max().unwrap_or(0),
        threads: 1,
        ..Default::default()
    };
    let assemble_start = Instant::now();
    for (_, outcome) in outcomes {
        stats.milp_nodes += outcome.nodes;
        stats.milp_count += 1;
        stats.suboptimal_subproblems += outcome.suboptimal;
        stats.warm_lp_solves += outcome.warm_lp_solves;
        stats.solve_cpu_time += outcome.solve_time;
        stats.max_subproblem_time = stats.max_subproblem_time.max(outcome.solve_time);
        merged.merge(outcome.explanations);
    }
    merged.normalise();

    let log_prob = log_probability(&merged, left, right, mapping, &config.params);
    let complete = merged.is_complete(left, right, relation);
    stats.assemble_time = assemble_start.elapsed();
    ExplanationReport { explanations: merged, log_probability: log_prob, complete, stats }
}

/// The result of encoding and solving one sub-problem component (one MILP).
#[derive(Debug, Clone)]
pub struct ComponentOutcome {
    /// Decoded explanations of the component (or the heuristic fallback).
    pub explanations: ExplanationSet,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// 1 when the solve stopped before proving optimality, else 0.
    pub suboptimal: usize,
    /// Warm LP re-solves inside the search.
    pub warm_lp_solves: usize,
    /// Encode + solve wall-clock time.
    pub solve_time: Duration,
}

/// Solves one component: the work-stealing scheduler's work item, shared by
/// the parallel and sequential solve paths — and by the incremental
/// re-explanation subsystem, which calls it for dirty components only.
///
/// A component with at most [`EXACT_MAX_MATCHES`] matches is solved by
/// [`exact_solution`], which enumerates its kept-match sets instead of
/// building a MILP; on the benchmark's cases that is nearly every
/// component (see [`EXACT_MAX_MATCHES`]). The enumerator returns the MILP's
/// optimum and reports a value change where [`decode`] does (on the
/// group's anchor), so both paths give the same answer.
/// Its outcome has `nodes`, `suboptimal` and `warm_lp_solves` at 0.
///
/// Larger components are encoded and solved by branch and bound
/// (Algorithm 1), each from a cold root: no solver state carries over
/// from one component's solve to the next.
///
/// `warm_basis` is ignored and must be `None`. It remains only so that
/// existing callers keep compiling; it will be removed.
///
/// [`decode`]: crate::encode::decode
/// [`EXACT_MAX_MATCHES`]: crate::encode::EXACT_MAX_MATCHES
pub fn solve_component(
    left: &CanonicalRelation,
    right: &CanonicalRelation,
    relation: crate::attr_match::SemanticRelation,
    config: &Explain3DConfig,
    comp: &SubProblem,
    warm_basis: Option<explain3d_milp::prelude::SparseBasis>,
) -> ComponentOutcome {
    debug_assert!(warm_basis.is_none(), "solve_component ignores warm_basis; pass None");
    let comp_start = Instant::now();
    if let Some((explanations, _)) = exact_solution(left, right, relation, &config.params, comp) {
        return ComponentOutcome {
            explanations,
            nodes: 0,
            suboptimal: 0,
            warm_lp_solves: 0,
            solve_time: comp_start.elapsed(),
        };
    }
    let encoded = crate::encode::encode(left, right, relation, &config.params, comp);
    // Seed the branch-and-bound with a greedily-constructed complete
    // solution as its incumbent so obviously-worse branches are pruned
    // early; the same solution serves as a fallback when the exact search
    // hits its node budget without a better incumbent.
    let (fallback, hint) =
        crate::encode::heuristic_solution(left, right, relation, &config.params, comp);
    let (solution, solve_stats) =
        explain3d_milp::branch_bound::solve_with_stats(&encoded.model, &config.milp, Some(hint));
    let explanations = if solution.status.has_solution() {
        crate::encode::decode(&encoded, &solution)
    } else {
        // Limit reached (or everything pruned by the warm-start bound):
        // the greedy complete solution is still valid output.
        fallback
    };
    ComponentOutcome {
        explanations,
        nodes: solve_stats.nodes,
        suboptimal: usize::from(solution.status != explain3d_milp::prelude::SolveStatus::Optimal),
        warm_lp_solves: solve_stats.warm_lp_solves,
        solve_time: comp_start.elapsed(),
    }
}

/// Converts a partition/component into a sub-problem, restricting matches to
/// the component's own edges.
fn component_to_subproblem(
    component: &explain3d_partition::Component,
    mapping: &TupleMapping,
) -> SubProblem {
    SubProblem {
        left_tuples: component.left.clone(),
        right_tuples: component.right.clone(),
        matches: component
            .edges
            .iter()
            .filter_map(|&e| mapping.matches().get(e).copied())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canonical::CanonicalTuple;
    use explain3d_linkage::TupleMatch;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn canon(name: &str, entries: &[(&str, f64)]) -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: entries
                .iter()
                .enumerate()
                .map(|(i, (k, imp))| CanonicalTuple {
                    id: i,
                    key: vec![Value::str(*k)],
                    impact: *imp,
                    members: vec![i],
                    representative: Row::new(vec![Value::str(*k)]),
                })
                .collect(),
            aggregate: None,
        }
    }

    /// A pair of relations with `n` matching entities, where entity 0 has an
    /// impact mismatch and the last left entity is missing on the right.
    fn scenario(n: usize) -> (CanonicalRelation, CanonicalRelation, TupleMapping) {
        let left_entries: Vec<(String, f64)> =
            (0..n).map(|i| (format!("entity {i}"), if i == 0 { 2.0 } else { 1.0 })).collect();
        let right_entries: Vec<(String, f64)> =
            (0..n - 1).map(|i| (format!("entity {i}"), 1.0)).collect();
        let left_refs: Vec<(&str, f64)> =
            left_entries.iter().map(|(s, i)| (s.as_str(), *i)).collect();
        let right_refs: Vec<(&str, f64)> =
            right_entries.iter().map(|(s, i)| (s.as_str(), *i)).collect();
        let t1 = canon("Q1", &left_refs);
        let t2 = canon("Q2", &right_refs);
        let mut mapping = TupleMapping::new();
        for i in 0..n - 1 {
            mapping.push(TupleMatch::new(i, i, 0.92));
            if i + 1 < n - 1 {
                mapping.push(TupleMatch::new(i, i + 1, 0.15));
            }
        }
        (t1, t2, mapping)
    }

    fn attr() -> AttributeMatches {
        AttributeMatches::single_equivalent("k", "k")
    }

    #[test]
    fn all_strategies_find_the_same_explanations() {
        let (t1, t2, mapping) = scenario(8);
        let configs = [
            Explain3DConfig::no_opt(),
            Explain3DConfig::connected_components(),
            Explain3DConfig::batched(4),
        ];
        let mut reports = Vec::new();
        for cfg in configs {
            let report = Explain3D::new(cfg).explain(&t1, &t2, &attr(), &mapping);
            assert!(report.complete, "incomplete explanations: {:?}", report.explanations);
            reports.push(report);
        }
        // Explanation sets agree across strategies (high-probability matches
        // are never cut, so partitioning loses nothing here).
        let base = &reports[0].explanations;
        for r in &reports[1..] {
            assert_eq!(base.provenance, r.explanations.provenance);
            assert_eq!(base.value.len(), r.explanations.value.len());
            assert_eq!(base.evidence.len(), r.explanations.evidence.len());
        }
        // Entity 7 is missing on the right; entity 0 has an impact mismatch.
        assert_eq!(base.provenance.len(), 1);
        assert_eq!(base.provenance[0].tuple, 7);
        assert_eq!(base.value.len(), 1);
    }

    #[test]
    fn stats_reflect_partitioning() {
        let (t1, t2, mapping) = scenario(12);
        let no_opt = Explain3D::new(Explain3DConfig::no_opt()).explain(&t1, &t2, &attr(), &mapping);
        assert_eq!(no_opt.stats.num_subproblems, 1);
        assert_eq!(no_opt.stats.max_subproblem_size, t1.len() + t2.len());

        let batched =
            Explain3D::new(Explain3DConfig::batched(6)).explain(&t1, &t2, &attr(), &mapping);
        assert!(batched.stats.num_subproblems > 1);
        assert!(batched.stats.max_subproblem_size <= 6);
        // The 22-tuple chain exceeds batch 6 and is split along its weak
        // links; no single high-probability couple is oversized.
        assert_eq!(batched.stats.split_components, 1);
        assert_eq!(batched.stats.oversized_parts, 0);
        assert_eq!(batched.stats.milp_count, batched.stats.num_subproblems);

        let cc = Explain3D::new(Explain3DConfig::connected_components()).explain(
            &t1,
            &t2,
            &attr(),
            &mapping,
        );
        assert!(cc.stats.num_subproblems >= 1);
        assert!(cc.stats.total_time >= cc.stats.solve_time);
    }

    #[test]
    fn parallel_and_sequential_runs_are_identical() {
        let (t1, t2, mapping) = scenario(16);
        for cfg in [
            Explain3DConfig::batched(4),
            Explain3DConfig::connected_components(),
            Explain3DConfig::no_opt(),
        ] {
            let par = Explain3D::new(cfg.clone()).explain(&t1, &t2, &attr(), &mapping);
            let seq = Explain3D::new(cfg.with_threads(1)).explain(&t1, &t2, &attr(), &mapping);
            assert_eq!(par.explanations, seq.explanations);
            assert_eq!(par.log_probability.to_bits(), seq.log_probability.to_bits());
            assert_eq!(par.complete, seq.complete);
            assert_eq!(par.stats.num_subproblems, seq.stats.num_subproblems);
            assert_eq!(par.stats.milp_nodes, seq.stats.milp_nodes);
            assert_eq!(seq.stats.threads, 1);
            // Per-sub-problem timings fold into the aggregate stats.
            assert!(par.stats.solve_cpu_time >= par.stats.max_subproblem_time);
            if par.stats.num_subproblems > 0 {
                assert!(par.stats.max_subproblem_time > Duration::ZERO);
            }
        }
    }

    #[test]
    fn identical_inputs_yield_no_explanations_and_high_score() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 1.0)]);
        let t2 = canon("Q2", &[("a", 1.0), ("b", 1.0)]);
        let mut mapping = TupleMapping::new();
        mapping.push(TupleMatch::new(0, 0, 0.9));
        mapping.push(TupleMatch::new(1, 1, 0.9));
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr(), &mapping);
        assert!(report.explanations.is_empty());
        assert!(report.complete);
        assert_eq!(report.explanations.evidence.len(), 2);
        assert!(report.log_probability < 0.0);
    }

    #[test]
    fn empty_mapping_forces_all_tuples_to_be_explained() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 1.0)]);
        let t2 = canon("Q2", &[("c", 1.0)]);
        let mapping = TupleMapping::new();
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr(), &mapping);
        assert!(report.complete);
        // Every tuple is either removed or zeroed.
        assert_eq!(report.explanations.len(), 3);
        assert!(report.explanations.evidence.is_empty());
    }

    #[test]
    fn empty_relations_produce_empty_report() {
        let t1 = canon("Q1", &[]);
        let t2 = canon("Q2", &[]);
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr(), &TupleMapping::new());
        assert!(report.explanations.is_empty());
        assert!(report.complete);
        assert_eq!(report.stats.num_subproblems, 0);
    }

    /// One ≡ pair whose impacts differ by `gap`, matched at p = 0.9. The
    /// report must be complete and score exactly the component's optimum.
    fn assert_small_gap_is_explained(gap: f64) {
        let t1 = canon("Q1", &[("a", 1.0)]);
        let t2 = canon("Q2", &[("a", 1.0 + gap)]);
        let mut mapping = TupleMapping::new();
        mapping.push(TupleMatch::new(0, 0, 0.9));
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr(), &mapping);
        let relation = attr().mapping_relation();
        let params = ProbabilityParams::default();
        let sub = SubProblem::full(&t1, &t2, &mapping);
        let (_, objective) = exact_solution(&t1, &t2, relation, &params, &sub).unwrap();
        assert!(report.complete, "gap {gap}: incomplete {:?}", report.explanations);
        assert!(
            (report.log_probability - objective).abs() < 1e-9,
            "gap {gap}: scored {} for optimum {objective}",
            report.log_probability
        );
        if gap > crate::explanation::IMPACT_TOLERANCE {
            // Above the tolerance the MILP pays for the change too.
            let (_, solution) =
                solve_subproblem(&t1, &t2, relation, &params, &sub, &MilpConfig::default());
            assert!((solution.objective - objective).abs() < 1e-9, "gap {gap}");
            assert_eq!(report.explanations.value.len(), 1, "gap {gap}");
        }
    }

    #[test]
    fn value_change_of_5e_5_is_reported() {
        assert_small_gap_is_explained(5e-5);
    }

    #[test]
    fn value_change_of_5e_6_is_reported() {
        assert_small_gap_is_explained(5e-6);
    }

    #[test]
    fn impact_gap_of_5e_8_is_within_tolerance() {
        assert_small_gap_is_explained(5e-8);
    }

    #[test]
    fn subproblem_helper_solves_directly() {
        let (t1, t2, mapping) = scenario(4);
        let sub = SubProblem::full(&t1, &t2, &mapping);
        let e = Explain3D::with_defaults().explain_subproblem(&t1, &t2, &attr(), &sub);
        assert!(e.is_complete(&t1, &t2, attr().mapping_relation()));
    }
}
