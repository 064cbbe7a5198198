//! Equivalence tests for the performance-optimised hot paths.
//!
//! The PR that introduced the interned similarity kernel, the indexed
//! [`TupleMapping`], and parallel Stage-2 solving guarantees that none of
//! them changes observable behaviour. These tests pin that contract:
//!
//! 1. blocked and unblocked candidate generation agree above
//!    `min_similarity` (for pairs blocking can see at all);
//! 2. parallel and sequential pipeline runs produce identical
//!    `ExplanationSet`s and scores;
//! 3. the indexed `TupleMapping` lookups agree with the original
//!    linear-scan semantics, duplicate pairs included;
//! 4. row-parallel candidate generation (each left row scored against its
//!    blocked partners, never materialising a pair list) retains
//!    byte-identical candidates to `candidate_pairs_naive` across seeded
//!    random datasets;
//! 5. smart partitioning without an oversized component reports exactly
//!    what connected-components splitting does, and parallel runs stay
//!    byte-identical to sequential ones under a *node-limited*
//!    (deterministic-deadline) search even when the limit is hit.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::datagen::{generate_synthetic, vocab, SyntheticConfig};
use explain3d::linkage::{
    candidate_pairs, candidate_pairs_naive, token_set, Candidate, MappingConfig,
};
use explain3d::prelude::*;

/// A pair of relations with phrase + year attributes and overlapping
/// vocabulary, the shape the linkage layer sees after canonicalisation.
fn workload(rows: usize, vocab_size: usize) -> (Schema, Vec<Row>, Schema, Vec<Row>) {
    let schema = Schema::from_pairs(&[("name", ValueType::Str), ("year", ValueType::Int)]);
    let make_rows = |seed: u64| -> Vec<Row> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                let words = rng.gen_range(1..=4usize);
                let phrase = vocab::synthetic_phrase(&mut rng, vocab_size, words);
                let year = rng.gen_range(1999..2005i64);
                Row::new(vec![Value::str(phrase), Value::Int(year)])
            })
            .collect()
    };
    (schema.clone(), make_rows(11), schema, make_rows(12))
}

fn mapping_config() -> MappingConfig {
    MappingConfig::new(vec![
        ("name".to_string(), "name".to_string()),
        ("year".to_string(), "year".to_string()),
    ])
}

/// True when blocking has any way to discover the pair: a shared name token
/// or an equal year.
fn blockable(lrow: &Row, rrow: &Row) -> bool {
    let shared_token = match (lrow.get(0), rrow.get(0)) {
        (Some(Value::Str(a)), Some(Value::Str(b))) => !token_set(a).is_disjoint(&token_set(b)),
        _ => false,
    };
    let same_year = match (lrow.get(1), rrow.get(1)) {
        (Some(Value::Int(a)), Some(Value::Int(b))) => a == b,
        _ => false,
    };
    shared_token || same_year
}

#[test]
fn blocked_and_unblocked_candidates_agree_above_min_similarity() {
    let (ls, lr, rs, rr) = workload(120, 60);
    let cfg = mapping_config().with_min_similarity(0.1);
    let blocked = candidate_pairs(&ls, &lr, &rs, &rr, &cfg);
    let unblocked = candidate_pairs(&ls, &lr, &rs, &rr, &cfg.clone().without_blocking());
    assert!(!blocked.is_empty() && !unblocked.is_empty());

    let mut unblocked_sorted: Vec<Candidate> = unblocked.clone();
    unblocked_sorted.sort();
    // Blocking only prunes: every blocked candidate appears in the
    // exhaustive scan with a bit-identical similarity.
    for c in &blocked {
        assert!(
            unblocked_sorted.binary_search_by(|p| p.cmp(c)).is_ok(),
            "blocked candidate ({}, {}) missing from the exhaustive scan",
            c.left,
            c.right
        );
    }
    // ... and blocking loses nothing it can see: every exhaustive candidate
    // above the floor whose rows share a blocking key is also found.
    let mut blocked_sorted: Vec<Candidate> = blocked.clone();
    blocked_sorted.sort();
    for c in &unblocked {
        if blockable(&lr[c.left], &rr[c.right]) {
            assert!(
                blocked_sorted.binary_search_by(|p| p.cmp(c)).is_ok(),
                "blocking missed discoverable candidate ({}, {})",
                c.left,
                c.right
            );
        }
    }
}

#[test]
fn interned_candidates_match_naive_scoring_end_to_end() {
    let (ls, lr, rs, rr) = workload(150, 80);
    for blocking in [true, false] {
        let mut cfg = mapping_config();
        cfg.use_blocking = blocking;
        let fast = candidate_pairs(&ls, &lr, &rs, &rr, &cfg);
        let naive = candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg);
        assert_eq!(fast.len(), naive.len(), "blocking={blocking}");
        for (f, n) in fast.iter().zip(naive.iter()) {
            assert_eq!((f.left, f.right), (n.left, n.right), "blocking={blocking}");
            assert_eq!(
                f.similarity.to_bits(),
                n.similarity.to_bits(),
                "similarity differs for ({}, {})",
                f.left,
                f.right
            );
        }
    }
}

/// Asserts that the candidate generator retains byte-identical candidates
/// to the naive reference on the given workload.
fn assert_candidates_match_naive(rows: usize, vocab_size: usize) {
    let (ls, lr, rs, rr) = workload(rows, vocab_size);
    for blocking in [true, false] {
        let mut cfg = mapping_config();
        cfg.use_blocking = blocking;
        let naive = candidate_pairs_naive(&ls, &lr, &rs, &rr, &cfg);
        let fast = candidate_pairs(&ls, &lr, &rs, &rr, &cfg);
        assert_eq!(fast.len(), naive.len(), "rows={rows} blocking={blocking}");
        for (f, n) in fast.iter().zip(naive.iter()) {
            assert_eq!((f.left, f.right), (n.left, n.right), "rows={rows} blocking={blocking}");
            assert_eq!(
                f.similarity.to_bits(),
                n.similarity.to_bits(),
                "similarity differs for ({}, {})",
                f.left,
                f.right
            );
        }
    }
}

#[test]
fn row_parallel_candidates_match_naive_across_seeded_datasets() {
    assert_candidates_match_naive(60, 40);
    assert_candidates_match_naive(130, 70);
}

/// Larger seeded dataset for the `--include-ignored` stress lane in CI.
#[test]
#[ignore = "stress suite: run with --include-ignored"]
fn row_parallel_candidates_match_naive_on_a_large_dataset() {
    assert_candidates_match_naive(900, 300);
}

#[test]
fn parallel_and_sequential_pipelines_are_byte_identical() {
    let case = generate_synthetic(&SyntheticConfig::new(120, 0.3, 400));
    // A node cap keeps the MILP solves short. The search reads no clock,
    // so both runs explore identical search trees regardless of scheduling.
    let milp = MilpConfig { max_nodes: 2_000, ..Default::default() };
    for config in [
        Explain3DConfig::batched(30).with_milp(milp.clone()),
        Explain3DConfig::connected_components().with_milp(milp.clone()),
    ] {
        let run = |threads: Option<usize>| {
            Explain3D::new(Explain3DConfig { threads, ..config.clone() }).explain(
                &case.prepared.left_canonical,
                &case.prepared.right_canonical,
                &case.attribute_matches,
                &case.initial_mapping,
            )
        };
        let par = run(None);
        let seq = run(Some(1));
        assert_eq!(par.explanations, seq.explanations, "strategy {:?}", config.strategy);
        assert_eq!(par.log_probability.to_bits(), seq.log_probability.to_bits());
        assert_eq!(par.complete, seq.complete);
        assert_eq!(par.stats.num_subproblems, seq.stats.num_subproblems);
        assert_eq!(par.stats.milp_nodes, seq.stats.milp_nodes);
        assert_eq!(par.stats.suboptimal_subproblems, seq.stats.suboptimal_subproblems);
        assert!(par.stats.num_subproblems >= 2, "workload should actually partition");
    }
}

/// `case`'s canonical relations and initial mapping plus a dense
/// `size`×`size` block: `size` new tuples per side, impact 1, every pair
/// matched at p = 0.6. With `size` = 5 the block is one component of 25
/// matches, above `EXACT_MAX_MATCHES`, so the MILP (not the exact
/// enumerator) solves it, and its many tied optima make the search branch.
fn with_dense_block(
    case: &explain3d::datagen::GeneratedCase,
    size: usize,
) -> (CanonicalRelation, CanonicalRelation, TupleMapping) {
    let mut left = case.prepared.left_canonical.clone();
    let mut right = case.prepared.right_canonical.clone();
    let mut mapping = case.initial_mapping.clone();
    let (l0, r0) = (left.len(), right.len());
    for (rel, start) in [(&mut left, l0), (&mut right, r0)] {
        let template = rel.tuples[0].clone();
        for k in 0..size {
            rel.tuples.push(CanonicalTuple { id: start + k, impact: 1.0, ..template.clone() });
        }
    }
    for l in 0..size {
        for r in 0..size {
            mapping.push(TupleMatch::new(l0 + l, r0 + r, 0.6));
        }
    }
    (left, right, mapping)
}

/// The deterministic-deadline regression: the MILP search is bounded by a
/// *node budget* and reads no clock, so parallel and sequential Stage-2
/// runs stay byte-identical **even when sub-problems hit the limit**.
/// Components of at most
/// `EXACT_MAX_MATCHES` matches are solved by enumeration, which never hits
/// a limit, so the input carries a dense block the MILP must solve.
#[test]
fn node_limited_deadline_is_deterministic_even_when_hit() {
    let case = generate_synthetic(&SyntheticConfig::new(90, 0.35, 300));
    let (left, right, mapping) = with_dense_block(&case, 5);
    // A node budget tight enough that some sub-problems cannot prove
    // optimality.
    let milp = MilpConfig { max_nodes: 3, ..Default::default() };
    let config = Explain3DConfig::batched(24).with_milp(milp);
    let run = |threads: Option<usize>| {
        Explain3D::new(Explain3DConfig { threads, ..config.clone() }).explain(
            &left,
            &right,
            &case.attribute_matches,
            &mapping,
        )
    };
    let par = run(None);
    let seq = run(Some(1));
    assert!(
        par.stats.suboptimal_subproblems > 0,
        "the node budget must actually be hit for this regression to bite"
    );
    assert_eq!(par.explanations, seq.explanations, "limit-hit outputs diverged");
    assert_eq!(par.log_probability.to_bits(), seq.log_probability.to_bits());
    assert_eq!(par.complete, seq.complete);
    assert_eq!(par.stats.milp_nodes, seq.stats.milp_nodes);
    assert_eq!(par.stats.milp_count, seq.stats.milp_count);
    assert_eq!(par.stats.suboptimal_subproblems, seq.stats.suboptimal_subproblems);
    // Re-running the parallel configuration is reproducible end to end.
    let again = run(None);
    assert_eq!(par.explanations, again.explanations);
    assert_eq!(par.log_probability.to_bits(), again.log_probability.to_bits());
}

/// With no component larger than the batch, smart partitioning hands
/// Stage 2 exactly the connected-components job list, so the reports are
/// byte-identical on seeded synthetic workloads.
#[test]
fn smart_partition_reports_are_byte_identical_to_connected_components() {
    for (tuples, noise, vocab_size) in [(60usize, 0.3f64, 200usize), (100, 0.4, 350)] {
        let case = generate_synthetic(&SyntheticConfig::new(tuples, noise, vocab_size));
        let milp = MilpConfig { max_nodes: 2_000, ..Default::default() };
        let run = |config: Explain3DConfig| {
            Explain3D::new(config.with_milp(milp.clone())).explain(
                &case.prepared.left_canonical,
                &case.prepared.right_canonical,
                &case.attribute_matches,
                &case.initial_mapping,
            )
        };
        let smart = run(Explain3DConfig::batched(30));
        let cc = run(Explain3DConfig::connected_components());
        assert_eq!(smart.stats.split_components, 0, "no component exceeds the batch");
        assert_eq!(smart.explanations, cc.explanations);
        assert_eq!(smart.log_probability.to_bits(), cc.log_probability.to_bits());
        assert_eq!(smart.complete, cc.complete);
        assert_eq!(smart.stats.num_subproblems, cc.stats.num_subproblems);
    }
}

/// Linear-scan reference semantics for `TupleMapping` lookups, as
/// implemented before the hash index.
mod reference {
    use explain3d::prelude::TupleMatch;

    pub fn prob(ms: &[TupleMatch], left: usize, right: usize) -> Option<f64> {
        ms.iter().find(|m| m.left == left && m.right == right).map(|m| m.prob)
    }

    pub fn matches_of_left(ms: &[TupleMatch], left: usize) -> Vec<TupleMatch> {
        ms.iter().filter(|m| m.left == left).copied().collect()
    }

    pub fn matches_of_right(ms: &[TupleMatch], right: usize) -> Vec<TupleMatch> {
        ms.iter().filter(|m| m.right == right).copied().collect()
    }
}

#[test]
fn indexed_tuple_mapping_agrees_with_linear_scan_reference() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let n = rng.gen_range(5..25usize);
        let mut ms: Vec<TupleMatch> = Vec::new();
        for _ in 0..rng.gen_range(0..60usize) {
            ms.push(TupleMatch::new(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(1..100u32) as f64 / 100.0,
            ));
        }
        // Force duplicate pairs with different probabilities: the pinned
        // behaviour is that lookups resolve to the FIRST inserted match.
        if let Some(&m) = ms.first() {
            ms.push(TupleMatch::new(m.left, m.right, (m.prob / 2.0).max(0.01)));
        }

        let mapping = TupleMapping::from_matches(ms.clone());
        assert_eq!(mapping.matches(), &ms[..], "insertion order preserved");
        for left in 0..n {
            for right in 0..n {
                assert_eq!(
                    mapping.prob(left, right),
                    reference::prob(&ms, left, right),
                    "seed {seed}: prob({left}, {right})"
                );
                assert_eq!(
                    mapping.contains_pair(left, right),
                    reference::prob(&ms, left, right).is_some()
                );
            }
            let of_left: Vec<TupleMatch> =
                mapping.matches_of_left(left).into_iter().copied().collect();
            assert_eq!(of_left, reference::matches_of_left(&ms, left));
            let of_right: Vec<TupleMatch> =
                mapping.matches_of_right(left).into_iter().copied().collect();
            assert_eq!(of_right, reference::matches_of_right(&ms, left));
        }

        // Mutation keeps the index in sync with the reference.
        let mut mapping = mapping;
        let mut ms_ref = ms.clone();
        mapping.retain(|m| m.prob >= 0.4);
        ms_ref.retain(|m| m.prob >= 0.4);
        for left in 0..n {
            for right in 0..n {
                assert_eq!(mapping.prob(left, right), reference::prob(&ms_ref, left, right));
            }
        }
    }
}

/// A synthetic workload with one huge high-probability cluster (an
/// oversized component the partitioner flags and never cuts) surrounded by
/// many small couples. Before component-granularity scheduling, the part
/// holding the big component serialised the whole phase on one thread.
mod huge_component {
    use explain3d::core::prelude::{CanonicalRelation, CanonicalTuple};
    use explain3d::prelude::*;
    use explain3d_relation::prelude::{Row, Schema, Value, ValueType};

    fn canon(name: &str, n: usize, impact: impl Fn(usize) -> f64) -> CanonicalRelation {
        CanonicalRelation {
            query_name: name.to_string(),
            schema: Schema::from_pairs(&[("k", ValueType::Str)]),
            key_attrs: vec!["k".to_string()],
            tuples: (0..n)
                .map(|i| CanonicalTuple {
                    id: i,
                    key: vec![Value::str(format!("e{i}"))],
                    impact: impact(i),
                    members: vec![i],
                    representative: Row::new(vec![Value::str(format!("e{i}"))]),
                })
                .collect(),
            aggregate: None,
        }
    }

    /// `chain` tuples per side welded into ONE component by 0.95 matches,
    /// plus `couples` independent 2-tuple components.
    pub fn workload(
        chain: usize,
        couples: usize,
    ) -> (CanonicalRelation, CanonicalRelation, TupleMapping) {
        let n = chain + couples;
        let left = canon("Q1", n, |i| if i == 0 { 2.0 } else { 1.0 });
        let right = canon("Q2", n, |_| 1.0);
        let mut mapping = TupleMapping::new();
        for i in 0..chain {
            mapping.push(TupleMatch::new(i, i, 0.95));
            if i + 1 < chain {
                // Welds consecutive couples into one huge cluster.
                mapping.push(TupleMatch::new(i + 1, i, 0.95));
            }
        }
        for i in chain..n {
            mapping.push(TupleMatch::new(i, i, 0.92));
        }
        (left, right, mapping)
    }
}

/// The work-stealing Stage-2 scheduler must return byte-identical reports
/// for every thread count — including the layout where one part holds a
/// single huge component (flagged oversized) that previously serialised the
/// phase under one-thread-per-part scheduling.
#[test]
fn work_stealing_is_byte_identical_across_thread_counts() {
    let (left, right, mapping) = huge_component::workload(22, 24);
    let attr = explain3d::core::prelude::AttributeMatches::single_equivalent("k", "k");
    let milp = MilpConfig { max_nodes: 300, ..Default::default() };
    // Batch 16 < the 44-tuple welded cluster: the cluster becomes a flagged
    // oversized part of its own; each couple is a part of its own.
    let config = Explain3DConfig::batched(16).with_milp(milp);
    let run = |threads: usize| {
        Explain3D::new(config.clone().with_threads(threads)).explain(&left, &right, &attr, &mapping)
    };
    let base = run(1);
    assert_eq!(base.stats.oversized_parts, 1, "the huge cluster must be flagged oversized");
    assert_eq!(base.stats.max_subproblem_size, 44, "the welded cluster is the largest job");
    for threads in [2, 4, 8] {
        let par = run(threads);
        assert_eq!(base.explanations, par.explanations, "threads={threads}");
        assert_eq!(
            base.log_probability.to_bits(),
            par.log_probability.to_bits(),
            "threads={threads}"
        );
        assert_eq!(base.complete, par.complete);
        assert_eq!(base.stats.num_subproblems, par.stats.num_subproblems);
        assert_eq!(base.stats.milp_count, par.stats.milp_count);
        assert_eq!(base.stats.milp_nodes, par.stats.milp_nodes);
        assert_eq!(base.stats.suboptimal_subproblems, par.stats.suboptimal_subproblems);
        // Sequential runs never steal; parallel runs may.
        assert_eq!(base.stats.steals, 0);
    }
}
