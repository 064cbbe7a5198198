//! The benchmark's own `explain_batch` cases, built once for every oracle
//! suite: synthetic n = 1000, d = 0.2, v = 1000 at the perfbench case
//! seeds, prepared into canonical relations, with the initial mapping
//! built exactly as the benchmark builds it.

// Each suite that includes this module reads only part of it.
#![allow(dead_code)]

use explain3d::datagen::{generate_synthetic, SyntheticConfig};
use explain3d::prelude::*;

/// Seed of case `i` of a perfbench run seeded `seed` (`case_seed` in
/// `perfbench/src/explain_batch.rs`).
fn case_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// One prepared `explain_batch` case.
pub struct BenchmarkCase {
    /// Canonical relation `T1`.
    pub left: CanonicalRelation,
    /// Canonical relation `T2`.
    pub right: CanonicalRelation,
    /// The attribute matches between the two queries.
    pub matches: AttributeMatches,
    /// The initial tuple mapping, built with the default mapping options.
    pub mapping: TupleMapping,
}

/// Case `i` of a perfbench `explain_batch` run seeded `seed`.
pub fn benchmark_case(seed: u64, i: usize) -> BenchmarkCase {
    let case =
        generate_synthetic(&SyntheticConfig::new(1000, 0.2, 1000).with_seed(case_seed(seed, i)));
    let matches = case.attribute_matches;
    let prepared = prepare(&case.left, &case.right, &matches).expect("prepare");
    let (left, right) = (prepared.left_canonical, prepared.right_canonical);
    let options = ExplainOptions::default();
    let mapping = build_initial_mapping(&left, &right, &matches, &options.mapping, None);
    BenchmarkCase { left, right, matches, mapping }
}
