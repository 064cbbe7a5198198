//! The incremental re-explanation session.
//!
//! [`ExplainSession`] owns a pair of canonical relations and memoises the
//! expensive artefacts of explaining them — the retained candidate list
//! and per-component MILP solutions (content-hashed, stored in local
//! coordinates) — so that [`ExplainSession::re_explain`] after a small
//! [`RelationDelta`] costs a small fraction of a cold
//! [`ExplainSession::explain`].
//!
//! ## The byte-identity invariant
//!
//! `re_explain(δ)` returns **exactly** the report a cold pipeline would
//! produce on the post-δ relations (explanations, evidence, log-probability
//! bits, completeness — everything except wall-clock timings and cache
//! statistics). The invariant holds by construction, not by luck:
//!
//! 1. **Candidates.** The retained candidate set is assembled from (a) the
//!    previous run's candidates between tuples whose representative rows
//!    the delta left unchanged (untouched tuples and impact-only updates),
//!    re-indexed through the delta's monotone index maps — valid because
//!    both blocking keys and similarities are pure functions of the two
//!    rows' contents, never of impacts — and (b) pairs with at least one
//!    dirty endpoint, enumerated by
//!    [`explain3d_linkage::generator::candidate_pairs`] (the cold path's
//!    own blocking and scoring) over the dirty rows. The merged,
//!    `(left, right)`-sorted list equals the cold enumeration's output
//!    element for element.
//! 2. **Partition.** The job list is derived by the *same*
//!    [`explain3d_core::pipeline::component_jobs`] call the cold pipeline
//!    uses, on the identical mapping — batch packing is global (first-fit
//!    decreasing over all components), so it is deterministically recomputed
//!    rather than patched; what is reused across the new layout is the
//!    per-component solutions, which packing only groups, never alters.
//! 3. **Solutions.** A component's MILP outcome is a deterministic function
//!    of its *content* — member impacts and match probabilities in
//!    component order (tuple identities only name variables; the paper's
//!    Eq. 7–13 encoding never reads them). Cached outcomes are stored in
//!    local coordinates and re-bound to the new tuple indices on reuse, so
//!    a hit reproduces exactly what re-solving would produce. Misses are
//!    solved through the same [`explain3d_core::pipeline::solve_component`]
//!    entry point as the cold pipeline, from a cold root: no solver state
//!    carries over between solves, so a re-solved component decodes
//!    exactly as it would in a cold run.
//! 4. **Merge.** Outcomes are folded by the shared
//!    [`explain3d_core::pipeline::assemble_report`] in job order.
//!
//! `tests/incremental_equivalence.rs` pins the invariant over randomized
//! delta sequences, including component splits and merges.

use crate::delta::{apply_delta, DeltaError, RelationDelta, SideTrace};
use explain3d_core::pipeline::{
    assemble_report, component_jobs, solve_component, ComponentOutcome, DeltaStats,
    Explain3DConfig, ExplanationReport,
};
use explain3d_core::prelude::{
    AttributeMatches, CanonicalRelation, ExplanationSet, MappingOptions, Side, SubProblem,
};
use explain3d_linkage::generator::{candidate_pairs, Candidate, MappingConfig};
use explain3d_linkage::{BucketCalibrator, TupleMapping, TupleMatch};
use explain3d_relation::prelude::Row;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cached solution entries older than this many session runs are evicted
/// (a run is one `explain`/`re_explain` call). Keeping a few generations
/// lets oscillating deltas (edit → revert) hit without unbounded growth.
const KEEP_GENERATIONS: u64 = 4;

/// Configuration of an [`ExplainSession`].
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Stage-2 pipeline configuration (strategy, MILP limits, threads).
    pub explain: Explain3DConfig,
    /// Initial-mapping options (metric, similarity floor, blocking).
    pub mapping: MappingOptions,
}

/// One memoised component solution, in local coordinates: positions into
/// the owning sub-problem's `left_tuples`/`right_tuples` vectors, so the
/// entry re-binds to any later component with identical content regardless
/// of where its tuples now sit in the relations.
#[derive(Debug, Clone)]
struct CachedComponent {
    provenance: Vec<(Side, u32)>,
    value: Vec<(Side, u32, f64, f64)>,
    evidence: Vec<(u32, u32, f64)>,
    nodes: usize,
    suboptimal: usize,
    warm_lp_solves: usize,
    last_used: u64,
}

impl CachedComponent {
    /// Captures an outcome in local coordinates.
    fn capture(sub: &SubProblem, outcome: &ComponentOutcome, generation: u64) -> Self {
        let left_pos: HashMap<usize, u32> =
            sub.left_tuples.iter().enumerate().map(|(p, &t)| (t, p as u32)).collect();
        let right_pos: HashMap<usize, u32> =
            sub.right_tuples.iter().enumerate().map(|(p, &t)| (t, p as u32)).collect();
        let e = &outcome.explanations;
        let local = |side: Side, tuple: usize| -> u32 {
            match side {
                Side::Left => left_pos[&tuple],
                Side::Right => right_pos[&tuple],
            }
        };
        CachedComponent {
            provenance: e.provenance.iter().map(|p| (p.side, local(p.side, p.tuple))).collect(),
            value: e
                .value
                .iter()
                .map(|v| (v.side, local(v.side, v.tuple), v.old_impact, v.new_impact))
                .collect(),
            evidence: e
                .evidence
                .matches()
                .iter()
                .map(|m| (left_pos[&m.left], right_pos[&m.right], m.prob))
                .collect(),
            nodes: outcome.nodes,
            suboptimal: outcome.suboptimal,
            warm_lp_solves: outcome.warm_lp_solves,
            last_used: generation,
        }
    }

    /// Resident bytes of this cached solution (struct plus the three
    /// local-coordinate vectors).
    fn memory_footprint(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.provenance.capacity() * std::mem::size_of::<(Side, u32)>()
            + self.value.capacity() * std::mem::size_of::<(Side, u32, f64, f64)>()
            + self.evidence.capacity() * std::mem::size_of::<(u32, u32, f64)>()
    }

    /// Re-binds the memoised solution to a new component with identical
    /// content, reproducing exactly what re-solving it would decode.
    fn to_outcome(&self, sub: &SubProblem) -> ComponentOutcome {
        let abs = |side: Side, pos: u32| -> usize {
            match side {
                Side::Left => sub.left_tuples[pos as usize],
                Side::Right => sub.right_tuples[pos as usize],
            }
        };
        let mut e = ExplanationSet::new();
        for &(side, pos) in &self.provenance {
            e.add_provenance(side, abs(side, pos));
        }
        for &(side, pos, old, new) in &self.value {
            e.add_value(side, abs(side, pos), old, new);
        }
        for &(lp, rp, prob) in &self.evidence {
            e.evidence.push(TupleMatch::new(
                sub.left_tuples[lp as usize],
                sub.right_tuples[rp as usize],
                prob,
            ));
        }
        e.normalise();
        ComponentOutcome {
            explanations: e,
            nodes: self.nodes,
            suboptimal: self.suboptimal,
            warm_lp_solves: self.warm_lp_solves,
            solve_time: std::time::Duration::ZERO,
        }
    }
}

/// A stateful explain session over one pair of canonical relations: run
/// [`explain`](ExplainSession::explain) once, then fold in updates with
/// [`re_explain`](ExplainSession::re_explain) at a fraction of the cost.
pub struct ExplainSession {
    config: SessionConfig,
    matches: AttributeMatches,
    mapping_config: MappingConfig,
    calibrator: BucketCalibrator,
    left: CanonicalRelation,
    right: CanonicalRelation,
    candidates: Vec<Candidate>,
    solutions: HashMap<u64, CachedComponent>,
    generation: u64,
    stats: DeltaStats,
    explained: bool,
}

impl ExplainSession {
    /// Creates a session over the given relations.
    pub fn new(
        left: CanonicalRelation,
        right: CanonicalRelation,
        matches: AttributeMatches,
        config: SessionConfig,
    ) -> Self {
        let mapping_config = config.mapping.mapping_config(&matches);
        ExplainSession {
            config,
            matches,
            mapping_config,
            calibrator: BucketCalibrator::with_default_buckets(),
            left,
            right,
            candidates: Vec::new(),
            solutions: HashMap::new(),
            generation: 0,
            stats: DeltaStats::default(),
            explained: false,
        }
    }

    /// The current left relation.
    pub fn left(&self) -> &CanonicalRelation {
        &self.left
    }

    /// The current right relation.
    pub fn right(&self) -> &CanonicalRelation {
        &self.right
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The attribute matches the session was created with.
    pub fn matches(&self) -> &AttributeMatches {
        &self.matches
    }

    /// The session's cumulative cache statistics (monotone across calls).
    pub fn delta_stats(&self) -> DeltaStats {
        self.stats
    }

    /// Number of memoised component solutions currently held.
    pub fn cached_solutions(&self) -> usize {
        self.solutions.len()
    }

    /// The current retained candidate list (sorted by `(left, right)`).
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// True once [`explain`](ExplainSession::explain) has populated the
    /// session's caches (so `re_explain` takes the incremental path).
    pub fn has_explained(&self) -> bool {
        self.explained
    }

    /// Estimated resident bytes of everything the session memoises: the
    /// carried-over candidate list and the per-component MILP solution
    /// cache. This is the quantity a hosting
    /// registry's memory budget is enforced against — it grows while
    /// caches fill and drops when solution-cache eviction frees entries.
    /// The relations themselves are *not* counted: they are the session's
    /// working data, not reclaimable cache.
    pub fn memory_footprint(&self) -> usize {
        let solutions: usize = self
            .solutions
            .values()
            .map(|c| std::mem::size_of::<u64>() + c.memory_footprint())
            .sum();
        self.candidates.capacity() * std::mem::size_of::<Candidate>() + solutions
    }

    /// Overrides the deterministic MILP deadline for subsequent solves,
    /// returning the previous value so a caller can scope the override to
    /// one request. The deadline is converted into a per-model **node
    /// budget**, so two runs with the same deadline still produce
    /// byte-identical reports; runs under *different* deadlines may
    /// legitimately stop at different search trees — which is why the
    /// solution cache keys include the budget (see `component_hash`): an
    /// outcome solved under one deadline is never served to a run under
    /// another.
    pub fn set_milp_deadline(
        &mut self,
        deadline: Option<std::time::Duration>,
    ) -> Option<std::time::Duration> {
        std::mem::replace(&mut self.config.explain.milp.deadline, deadline)
    }

    /// Explains the current relations from their contents, populating every
    /// cache along the way. The report is identical to what the stateless
    /// pipeline (`build_initial_mapping` + `Explain3D::explain`) produces
    /// for the same configuration.
    pub fn explain(&mut self) -> ExplanationReport {
        let start = Instant::now();
        let (left_rows, right_rows) = self.representative_rows();
        self.candidates = candidate_pairs(
            &self.left.schema,
            &left_rows,
            &self.right.schema,
            &right_rows,
            &self.mapping_config,
        );
        let mapping = self.calibrated_mapping();
        let candidate_time = start.elapsed();
        let report = self.run(&mapping, start, candidate_time);
        self.explained = true;
        report
    }

    /// Applies a delta to the relations and re-explains incrementally:
    /// only pairs touching dirty tuples (inserted, or updated to a
    /// different representative row) are re-scored and only components
    /// whose content changed are re-solved. The report is byte-identical
    /// (explanations, evidence, log-probability bits, completeness) to a
    /// cold run on the post-delta relations; on error the relations are
    /// unchanged.
    pub fn re_explain(&mut self, delta: &RelationDelta) -> Result<ExplanationReport, DeltaError> {
        if !self.explained {
            // Nothing memoised yet: apply and fall through to the cold path.
            apply_delta(&mut self.left, &mut self.right, delta)?;
            return Ok(self.explain());
        }
        let start = Instant::now();
        let (lt, rt) = apply_delta(&mut self.left, &mut self.right, delta)?;

        // 1. Carry over candidates between clean tuples (monotone index
        //    maps keep the (left, right) sort order), dropping pairs that
        //    lost an endpoint.
        let mut clean: Vec<Candidate> = Vec::with_capacity(self.candidates.len());
        for c in &self.candidates {
            let (Some(&Some(ni)), Some(&Some(nj))) =
                (lt.index_map.get(c.left), rt.index_map.get(c.right))
            else {
                continue;
            };
            clean.push(Candidate { left: ni, right: nj, similarity: c.similarity });
        }
        self.stats.candidates_reused += clean.len();

        // 2. Enumerate and score the pairs with a dirty endpoint.
        let dirty = self.score_dirty_pairs(&lt, &rt);

        // 3. Merge the two sorted, disjoint runs.
        self.candidates = merge_candidates(clean, dirty);
        let mapping = self.calibrated_mapping();
        let candidate_time = start.elapsed();
        Ok(self.run(&mapping, start, candidate_time))
    }

    /// The representative rows of both relations (the linkage layer's
    /// input, mirroring `build_initial_mapping`).
    fn representative_rows(&self) -> (Vec<Row>, Vec<Row>) {
        (
            self.left.tuples.iter().map(|t| t.representative.clone()).collect(),
            self.right.tuples.iter().map(|t| t.representative.clone()).collect(),
        )
    }

    /// Candidates → calibrated probabilistic mapping, exactly as the
    /// stateless `build_initial_mapping` (no-gold branch) computes it.
    fn calibrated_mapping(&self) -> TupleMapping {
        self.candidates
            .iter()
            .map(|c| TupleMatch::new(c.left, c.right, self.calibrator.probability(c.similarity)))
            .collect()
    }

    /// Scores every pair with at least one dirty endpoint: dirty-left ×
    /// all-right plus clean-left × dirty-right, each run through
    /// [`candidate_pairs`] — the same blocking enumeration and the same
    /// row-parallel scorer as the cold path, just over restricted row
    /// subsets (preparation is per-row, so subset results match the
    /// full-relation results bit for bit). Returns retained
    /// candidates re-indexed to the full relations and sorted by
    /// `(left, right)`.
    fn score_dirty_pairs(&self, lt: &SideTrace, rt: &SideTrace) -> Vec<Candidate> {
        let dirty_left: Vec<usize> =
            lt.dirty.iter().enumerate().filter_map(|(i, &d)| d.then_some(i)).collect();
        let dirty_right: Vec<usize> =
            rt.dirty.iter().enumerate().filter_map(|(j, &d)| d.then_some(j)).collect();
        if dirty_left.is_empty() && dirty_right.is_empty() {
            return Vec::new();
        }
        let left_row = |i: usize| self.left.tuples[i].representative.clone();
        let right_row = |j: usize| self.right.tuples[j].representative.clone();

        let mut out: Vec<Candidate> = Vec::new();
        // Dirty-left rows against the full right side.
        if !dirty_left.is_empty() && !self.right.is_empty() {
            let sub_rows: Vec<Row> = dirty_left.iter().map(|&i| left_row(i)).collect();
            let right_rows: Vec<Row> = (0..self.right.len()).map(right_row).collect();
            let cands = candidate_pairs(
                &self.left.schema,
                &sub_rows,
                &self.right.schema,
                &right_rows,
                &self.mapping_config,
            );
            out.extend(cands.into_iter().map(|c| Candidate {
                left: dirty_left[c.left],
                right: c.right,
                similarity: c.similarity,
            }));
        }
        // Clean-left rows against the dirty right rows (dirty × dirty is
        // already covered above, so restricting to clean left keeps the two
        // enumerations disjoint).
        if !dirty_right.is_empty() {
            let clean_left: Vec<usize> =
                lt.dirty.iter().enumerate().filter_map(|(i, &d)| (!d).then_some(i)).collect();
            if !clean_left.is_empty() {
                let left_sub: Vec<Row> = clean_left.iter().map(|&i| left_row(i)).collect();
                let right_sub: Vec<Row> = dirty_right.iter().map(|&j| right_row(j)).collect();
                let cands = candidate_pairs(
                    &self.left.schema,
                    &left_sub,
                    &self.right.schema,
                    &right_sub,
                    &self.mapping_config,
                );
                out.extend(cands.into_iter().map(|c| Candidate {
                    left: clean_left[c.left],
                    right: dirty_right[c.right],
                    similarity: c.similarity,
                }));
            }
        }
        out.sort_unstable();
        out
    }

    /// The shared solve-and-assemble tail of `explain` / `re_explain`:
    /// derives the job list with the cold pipeline's own `component_jobs`,
    /// answers content-hash hits from the solution cache, solves the misses
    /// on the work-stealing pool, and assembles the report with the shared
    /// `assemble_report`.
    fn run(
        &mut self,
        mapping: &TupleMapping,
        start: Instant,
        candidate_time: Duration,
    ) -> ExplanationReport {
        let partition_start = Instant::now();
        let (jobs, meta) =
            component_jobs(self.config.explain.strategy, &self.left, &self.right, mapping);
        let hashes: Vec<u64> = jobs.iter().map(|(_, sub)| self.component_hash(sub)).collect();
        let partition_time = partition_start.elapsed();

        let solve_start = Instant::now();
        self.generation += 1;
        let generation = self.generation;

        // Resolve cache hits; collect misses with their job slots.
        let mut slots: Vec<Option<(usize, ComponentOutcome)>> = Vec::with_capacity(jobs.len());
        let mut missed: Vec<(usize, usize, SubProblem)> = Vec::new();
        let mut part_missed = vec![false; meta.part_sizes.len()];
        for (slot, ((part, sub), hash)) in jobs.into_iter().zip(&hashes).enumerate() {
            if let Some(entry) = self.solutions.get_mut(hash) {
                entry.last_used = generation;
                self.stats.component_cache_hits += 1;
                slots.push(Some((part, entry.to_outcome(&sub))));
            } else {
                self.stats.component_cache_misses += 1;
                part_missed[part] = true;
                missed.push((slot, part, sub));
                slots.push(None);
            }
        }
        for &m in &part_missed {
            if m {
                self.stats.parts_dirty += 1;
            } else {
                self.stats.parts_reused += 1;
            }
        }

        // Solve the misses on the work-stealing pool (cold path: all jobs).
        let left = &self.left;
        let right = &self.right;
        let relation = self.matches.mapping_relation();
        let explain_config = &self.config.explain;
        let requested = explain_config.requested_threads();
        let threads = requested.min(missed.len()).max(1);
        let (solved, sched) = explain3d_parallel::par_map_stealing_weighted(
            missed,
            requested,
            |(_, _, sub)| sub.size().max(1),
            |(slot, part, sub)| {
                let outcome = solve_component(left, right, relation, explain_config, &sub, None);
                (slot, part, sub, outcome)
            },
        );
        for (slot, part, sub, outcome) in solved {
            self.solutions
                .insert(hashes[slot], CachedComponent::capture(&sub, &outcome, generation));
            slots[slot] = Some((part, outcome));
        }
        let outcomes: Vec<(usize, ComponentOutcome)> =
            slots.into_iter().map(|s| s.expect("every job slot resolved")).collect();

        // Evict entries that have not been touched for a few runs.
        self.solutions.retain(|_, e| generation.saturating_sub(e.last_used) <= KEEP_GENERATIONS);

        let mut report = assemble_report(
            &self.left,
            &self.right,
            &self.matches,
            mapping,
            &self.config.explain,
            &meta,
            outcomes,
        );
        report.stats.threads = threads;
        report.stats.steals = sched.steals;
        report.stats.candidate_time = candidate_time;
        report.stats.partition_time = partition_time;
        report.stats.solve_time = solve_start.elapsed();
        report.stats.total_time = start.elapsed();
        report.stats.delta = self.stats;
        report
    }

    /// Content hash of a component: everything its MILP solve depends on —
    /// member impacts (in component order), in-component matches as
    /// (local left, local right, probability) triples, and the **solve
    /// budget** (deadline + node cap). Tuple *identities* are deliberately
    /// excluded: the encoding only uses them to name variables, so
    /// content-equal components solve identically wherever their tuples
    /// sit. The budget is included because a budget-limited search can
    /// stop at a different tree: a solution obtained under one per-request
    /// deadline ([`ExplainSession::set_milp_deadline`]) must never answer
    /// a run under another — each budget keys its own cache entries, so
    /// byte-identity-to-cold holds *per budget*.
    fn component_hash(&self, sub: &SubProblem) -> u64 {
        let mut h = ContentHasher::new();
        let milp = &self.config.explain.milp;
        h.write_u64(milp.max_nodes as u64);
        match milp.deadline {
            Some(d) => {
                h.write_u64(1);
                h.write_u64(d.as_nanos() as u64);
            }
            None => h.write_u64(0),
        }
        h.write_u64(sub.left_tuples.len() as u64);
        for &i in &sub.left_tuples {
            h.write_u64(self.left.tuples[i].impact.to_bits());
        }
        h.write_u64(sub.right_tuples.len() as u64);
        for &j in &sub.right_tuples {
            h.write_u64(self.right.tuples[j].impact.to_bits());
        }
        let left_pos: HashMap<usize, u64> =
            sub.left_tuples.iter().enumerate().map(|(p, &t)| (t, p as u64)).collect();
        let right_pos: HashMap<usize, u64> =
            sub.right_tuples.iter().enumerate().map(|(p, &t)| (t, p as u64)).collect();
        for m in &sub.matches {
            // Matches referencing tuples outside the component are ignored
            // by the encoder and the heuristic alike, so they must not
            // perturb the hash either.
            let (Some(&lp), Some(&rp)) = (left_pos.get(&m.left), right_pos.get(&m.right)) else {
                continue;
            };
            h.write_u64(lp);
            h.write_u64(rp);
            h.write_u64(m.prob.to_bits());
        }
        h.finish()
    }
}

/// A streaming FNV-1a 64-bit hasher: the key function of the solution
/// cache ([`ExplainSession::component_hash`]).
struct ContentHasher(u64);

impl ContentHasher {
    fn new() -> Self {
        ContentHasher(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Merges two `(left, right)`-sorted, pair-disjoint candidate runs.
fn merge_candidates(a: Vec<Candidate>, b: Vec<Candidate>) -> Vec<Candidate> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < a.len() && ib < b.len() {
        if (a[ia].left, a[ia].right) <= (b[ib].left, b[ib].right) {
            out.push(a[ia]);
            ia += 1;
        } else {
            out.push(b[ib]);
            ib += 1;
        }
    }
    out.extend_from_slice(&a[ia..]);
    out.extend_from_slice(&b[ib..]);
    out
}

/// A canonical byte serialisation of everything a report *asserts* —
/// explanations, value changes, evidence mapping, log-probability bits, and
/// completeness (timings and cache statistics excluded). Two reports are
/// byte-identical in the sense of the incremental invariant iff their
/// fingerprints are equal.
pub fn report_fingerprint(report: &ExplanationReport) -> Vec<u8> {
    let mut out = Vec::new();
    let side_byte = |s: Side| match s {
        Side::Left => 0u8,
        Side::Right => 1u8,
    };
    let e = &report.explanations;
    out.extend_from_slice(&(e.provenance.len() as u64).to_le_bytes());
    for p in &e.provenance {
        out.push(side_byte(p.side));
        out.extend_from_slice(&(p.tuple as u64).to_le_bytes());
    }
    out.extend_from_slice(&(e.value.len() as u64).to_le_bytes());
    for v in &e.value {
        out.push(side_byte(v.side));
        out.extend_from_slice(&(v.tuple as u64).to_le_bytes());
        out.extend_from_slice(&v.old_impact.to_bits().to_le_bytes());
        out.extend_from_slice(&v.new_impact.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&(e.evidence.len() as u64).to_le_bytes());
    for m in e.evidence.matches() {
        out.extend_from_slice(&(m.left as u64).to_le_bytes());
        out.extend_from_slice(&(m.right as u64).to_le_bytes());
        out.extend_from_slice(&m.prob.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&report.log_probability.to_bits().to_le_bytes());
    out.push(u8::from(report.complete));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d_core::prelude::CanonicalTuple;
    use explain3d_relation::prelude::{Schema, Value, ValueType};

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

    fn tuple(key: &str, impact: f64) -> CanonicalTuple {
        CanonicalTuple {
            id: 0,
            key: vec![Value::str(key)],
            impact,
            members: vec![],
            representative: Row::new(vec![Value::str(key)]),
        }
    }

    fn session(left: CanonicalRelation, right: CanonicalRelation) -> ExplainSession {
        ExplainSession::new(
            left,
            right,
            AttributeMatches::single_equivalent("k", "k"),
            SessionConfig::default(),
        )
    }

    fn cold_fingerprint(s: &ExplainSession) -> Vec<u8> {
        let mut fresh = ExplainSession::new(
            s.left().clone(),
            s.right().clone(),
            AttributeMatches::single_equivalent("k", "k"),
            SessionConfig::default(),
        );
        report_fingerprint(&fresh.explain())
    }

    #[test]
    fn session_explain_matches_stateless_pipeline() {
        let t1 = canon("Q1", &[("alpha", 1.0), ("beta", 2.0), ("gamma", 1.0)]);
        let t2 = canon("Q2", &[("alpha", 1.0), ("beta", 1.0)]);
        let matches = AttributeMatches::single_equivalent("k", "k");
        let cfg = SessionConfig::default();
        let mapping =
            explain3d_core::prelude::build_initial_mapping(&t1, &t2, &matches, &cfg.mapping, None);
        let stateless = explain3d_core::prelude::Explain3D::new(cfg.explain.clone())
            .explain(&t1, &t2, &matches, &mapping);
        let mut s = session(t1, t2);
        let report = s.explain();
        assert_eq!(report.explanations, stateless.explanations);
        assert_eq!(report.log_probability.to_bits(), stateless.log_probability.to_bits());
        assert_eq!(report.complete, stateless.complete);
        assert_eq!(report.stats.milp_nodes, stateless.stats.milp_nodes);
    }

    #[test]
    fn re_explain_equals_cold_after_update() {
        let t1 = canon("Q1", &[("alpha", 1.0), ("beta", 2.0), ("gamma", 1.0)]);
        let t2 = canon("Q2", &[("alpha", 1.0), ("beta", 1.0), ("delta", 1.0)]);
        let mut s = session(t1, t2);
        s.explain();
        let delta = RelationDelta::new().update(Side::Right, 1, tuple("beta", 2.0));
        let incremental = s.re_explain(&delta).unwrap();
        assert_eq!(report_fingerprint(&incremental), cold_fingerprint(&s));
        let stats = s.delta_stats();
        assert!(stats.component_cache_hits > 0, "untouched components must hit: {stats:?}");
        assert!(stats.candidates_reused > 0);
    }

    #[test]
    fn re_explain_equals_cold_after_insert_and_delete() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 1.0), ("c", 3.0)]);
        let t2 = canon("Q2", &[("a", 1.0), ("c", 2.0)]);
        let mut s = session(t1, t2);
        s.explain();
        let delta = RelationDelta::new().insert(Side::Right, tuple("b", 1.0)).delete(Side::Left, 2);
        let incremental = s.re_explain(&delta).unwrap();
        assert_eq!(report_fingerprint(&incremental), cold_fingerprint(&s));
    }

    #[test]
    fn empty_delta_is_all_hits() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 2.0)]);
        let t2 = canon("Q2", &[("a", 1.0)]);
        let mut s = session(t1, t2);
        s.explain();
        let before = s.delta_stats();
        let report = s.re_explain(&RelationDelta::new()).unwrap();
        assert_eq!(report_fingerprint(&report), cold_fingerprint(&s));
        let after = s.delta_stats();
        assert_eq!(after.component_cache_misses, before.component_cache_misses);
        assert_eq!(after.candidates_reused - before.candidates_reused, s.candidates().len());
        assert!(after.component_cache_hits > before.component_cache_hits);
        assert_eq!(after.parts_dirty, before.parts_dirty);
    }

    #[test]
    fn impact_only_update_carries_every_candidate_over() {
        let t1 = canon("Q1", &[("alpha", 1.0), ("beta", 2.0), ("gamma", 1.0)]);
        let t2 = canon("Q2", &[("alpha", 1.0), ("beta", 1.0), ("delta", 1.0)]);
        let mut s = session(t1, t2);
        s.explain();
        let candidates = s.candidates().len();
        assert!(candidates > 0);
        let before = s.delta_stats();
        // Same representative row, new impact: nothing is re-scored.
        let delta = RelationDelta::new().update(Side::Right, 1, tuple("beta", 2.0));
        let report = s.re_explain(&delta).unwrap();
        assert_eq!(report_fingerprint(&report), cold_fingerprint(&s));
        let after = s.delta_stats();
        assert_eq!(after.candidates_reused - before.candidates_reused, candidates);
        assert_eq!(s.candidates().len(), candidates);
        // The component holding the tuple still re-solves (impacts are in
        // its content hash).
        assert!(after.component_cache_misses > before.component_cache_misses);
    }

    #[test]
    fn failed_delta_leaves_session_usable() {
        let t1 = canon("Q1", &[("a", 1.0)]);
        let t2 = canon("Q2", &[("a", 1.0)]);
        let mut s = session(t1, t2);
        let first = s.explain();
        let err = s.re_explain(&RelationDelta::new().delete(Side::Left, 7)).unwrap_err();
        assert_eq!(err.index, 7);
        // The session state is untouched; re-running reproduces the report.
        let again = s.re_explain(&RelationDelta::new()).unwrap();
        assert_eq!(report_fingerprint(&again), report_fingerprint(&first));
    }

    #[test]
    fn merge_candidates_interleaves_sorted_runs() {
        let c = |l: usize, r: usize| Candidate { left: l, right: r, similarity: 0.5 };
        let merged = merge_candidates(vec![c(0, 1), c(2, 0)], vec![c(0, 0), c(1, 1), c(3, 0)]);
        let pairs: Vec<(usize, usize)> = merged.iter().map(|x| (x.left, x.right)).collect();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 1), (2, 0), (3, 0)]);
        assert!(merge_candidates(vec![], vec![c(1, 1)]).len() == 1);
        assert!(merge_candidates(vec![c(1, 1)], vec![]).len() == 1);
    }

    #[test]
    fn memory_footprint_is_monotone_under_inserts() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 2.0), ("c", 1.0)]);
        let t2 = canon("Q2", &[("a", 1.0), ("b", 1.0)]);
        let mut s = session(t1, t2);
        let empty = s.memory_footprint();
        s.explain();
        let mut prev = s.memory_footprint();
        assert!(prev > empty, "explain must populate the caches");
        // Pure inserts only add cache entries (no solution eviction while
        // every old component still hits), so the footprint must never
        // shrink.
        for i in 0..4 {
            let delta = RelationDelta::new().insert(Side::Right, tuple(&format!("new{i}"), 1.0));
            s.re_explain(&delta).unwrap();
            let now = s.memory_footprint();
            assert!(now >= prev, "footprint shrank under insert {i}: {now} < {prev}");
            prev = now;
        }
    }

    #[test]
    fn deadline_changes_invalidate_the_solution_cache() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 2.0), ("c", 1.0)]);
        let t2 = canon("Q2", &[("a", 1.0), ("b", 1.0)]);
        let mut s = session(t1, t2);
        s.explain();
        let baseline = s.delta_stats();

        // Same relations, different budget: the cached solutions were
        // obtained under the default deadline and must NOT answer — every
        // component re-solves (misses grow, no new hits).
        let default_deadline = s.set_milp_deadline(Some(std::time::Duration::from_millis(321)));
        let overridden = s.re_explain(&RelationDelta::new()).unwrap();
        let after_override = s.delta_stats();
        assert_eq!(after_override.component_cache_hits, baseline.component_cache_hits);
        assert!(after_override.component_cache_misses > baseline.component_cache_misses);
        // These tiny components solve to optimality under any budget, so
        // the report itself still matches a default-config cold run.
        assert_eq!(report_fingerprint(&overridden), cold_fingerprint(&s));

        // Restoring the default deadline hits the original entries again.
        s.set_milp_deadline(default_deadline);
        let restored = s.re_explain(&RelationDelta::new()).unwrap();
        let after_restore = s.delta_stats();
        assert!(after_restore.component_cache_hits > after_override.component_cache_hits);
        assert_eq!(after_restore.component_cache_misses, after_override.component_cache_misses);
        assert_eq!(report_fingerprint(&restored), cold_fingerprint(&s));
    }

    #[test]
    fn scoped_deadline_override_round_trips() {
        let t1 = canon("Q1", &[("a", 1.0), ("b", 2.0)]);
        let t2 = canon("Q2", &[("a", 1.0)]);
        let mut s = session(t1, t2);
        let default_deadline = s.set_milp_deadline(Some(std::time::Duration::from_millis(250)));
        assert!(default_deadline.is_some(), "MilpConfig defaults to a deterministic deadline");
        let report = s.explain();
        assert!(report.complete);
        let scoped = s.set_milp_deadline(default_deadline);
        assert_eq!(scoped, Some(std::time::Duration::from_millis(250)));
    }
}
