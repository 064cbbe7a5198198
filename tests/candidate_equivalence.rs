//! Equivalence of Stage 1's candidate generator (`candidate_pairs`) with
//! the per-pair reference (`candidate_pairs_naive`) on the benchmark's own
//! `explain_batch` cases: synthetic n = 1000, d = 0.2, v = 1000 at the
//! perfbench case seeds, linked over the canonical relations' representative
//! rows with the default mapping options, exactly as the benchmark builds
//! its initial mapping. Every retained pair and every similarity bit must
//! agree.

use explain3d::datagen::{generate_synthetic, SyntheticConfig};
use explain3d::linkage::{candidate_pairs, candidate_pairs_naive, Candidate};
use explain3d::prelude::*;

/// Seed of case `i` of a perfbench run seeded `seed` (`case_seed` in
/// `perfbench/src/explain_batch.rs`).
fn case_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Compares the two generators on `explain_batch` cases `cases` at `seed`;
/// returns the number of candidates compared.
fn compare_benchmark_cases(seed: u64, cases: std::ops::Range<usize>) -> usize {
    let options = ExplainOptions::default();
    let mut compared = 0;
    for i in cases {
        let case = generate_synthetic(
            &SyntheticConfig::new(1000, 0.2, 1000).with_seed(case_seed(seed, i)),
        );
        let matches = &case.attribute_matches;
        let prepared = prepare(&case.left, &case.right, matches).expect("prepare");
        let (left, right) = (&prepared.left_canonical, &prepared.right_canonical);
        let config = options.mapping.mapping_config(matches);
        let left_rows: Vec<Row> = left.tuples.iter().map(|t| t.representative.clone()).collect();
        let right_rows: Vec<Row> = right.tuples.iter().map(|t| t.representative.clone()).collect();
        let run = |generate: fn(&Schema, &[Row], &Schema, &[Row], &_) -> Vec<Candidate>| {
            generate(&left.schema, &left_rows, &right.schema, &right_rows, &config)
                .iter()
                .map(|c| (c.left, c.right, c.similarity.to_bits()))
                .collect::<Vec<_>>()
        };
        let fast = run(candidate_pairs);
        let naive = run(candidate_pairs_naive);
        assert!(!naive.is_empty(), "case {i} has no candidates");
        assert_eq!(fast, naive, "case {i}");
        compared += naive.len();
    }
    compared
}

#[test]
fn candidates_match_naive_on_a_benchmark_case() {
    assert!(compare_benchmark_cases(1, 0..1) > 0);
}

#[test]
#[ignore = "20 benchmark cases; run in release with --include-ignored"]
fn candidates_match_naive_on_all_benchmark_cases() {
    let compared = compare_benchmark_cases(1, 0..20);
    eprintln!("{compared} candidates compared");
}
