//! Identity of the two component-level Stage-2 strategies on the
//! benchmark's own `explain_batch` cases: synthetic n = 1000, d = 0.2,
//! v = 1000 at the perfbench case seeds, with the initial mapping built
//! exactly as the benchmark builds it.
//!
//! `Smart { batch_size: 1000 }` splits only components larger than the
//! batch, and no component of these cases is, so `component_jobs` must
//! return the `ConnectedComponents` job list job for job, and the two
//! pipelines must return byte-identical reports (`report_fingerprint`).

mod common;

use common::benchmark_case;
use explain3d::core::pipeline::component_jobs;
use explain3d::prelude::*;

/// Compares the two strategies on `explain_batch` cases `cases` at `seed`;
/// returns the number of jobs compared.
fn compare_benchmark_cases(seed: u64, cases: std::ops::Range<usize>) -> usize {
    let options = ExplainOptions::default();
    let smart = PartitioningStrategy::Smart { batch_size: 1000 };
    let components = PartitioningStrategy::ConnectedComponents;
    let mut compared = 0;
    for i in cases {
        let case = benchmark_case(seed, i);
        let (left, right, matches, mapping) =
            (&case.left, &case.right, &case.matches, &case.mapping);

        let (smart_jobs, smart_meta) = component_jobs(smart, left, right, mapping);
        let (cc_jobs, cc_meta) = component_jobs(components, left, right, mapping);
        assert!(!cc_jobs.is_empty(), "case {i} has no jobs");
        assert_eq!(smart_meta, cc_meta, "case {i}");
        assert_eq!(smart_jobs, cc_jobs, "case {i}");

        let explain = |strategy| {
            let config = Explain3DConfig { strategy, ..options.pipeline.clone() };
            Explain3D::new(config).explain(left, right, matches, mapping)
        };
        let (smart_report, cc_report) = (explain(smart), explain(components));
        assert_eq!(report_fingerprint(&smart_report), report_fingerprint(&cc_report), "case {i}");
        compared += cc_jobs.len();
    }
    compared
}

#[test]
fn smart_and_connected_components_agree_on_a_benchmark_case() {
    assert!(compare_benchmark_cases(1, 0..1) > 0);
}

#[test]
#[ignore = "20 benchmark cases; run in release with --include-ignored"]
fn smart_and_connected_components_agree_on_all_benchmark_cases() {
    let compared = compare_benchmark_cases(1, 0..20);
    eprintln!("{compared} jobs compared");
}
