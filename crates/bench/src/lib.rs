//! # explain3d-bench
//!
//! Benchmark harness for the Explain3D reproduction. One binary per figure
//! of the paper's evaluation section (Section 5):
//!
//! * `fig4_dataset_stats` — the dataset-statistics table (Figure 4) and the
//!   attribute matches (Figure 5);
//! * `fig6_academic` — accuracy and runtime of all methods on the two
//!   academic pairs (Figure 6 a–f);
//! * `fig7_imdb` — average accuracy over the IMDb query templates and
//!   runtime vs. provenance size (Figure 7 a–c);
//! * `fig8_synthetic` — solve time of NoOpt / Batch-100 / Batch-1000 over
//!   the synthetic sweeps in `n`, `d`, and `v` (Figure 8 a–c).

#![warn(missing_docs)]

use explain3d::datagen::GeneratedCase;
use explain3d::prelude::*;
use std::time::{Duration, Instant};

/// The accuracy and runtime of one method on one case.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Method name (paper spelling).
    pub method: String,
    /// Explanation accuracy.
    pub explanation: Accuracy,
    /// Evidence accuracy.
    pub evidence: Accuracy,
    /// Wall-clock execution time of the method itself.
    pub time: Duration,
}

/// Runs Explain3D and every baseline of Section 5.1.3 on a generated case.
///
/// `batch_size` controls Explain3D's smart-partitioning batch; the same
/// initial mapping is shared by all mapping-based methods, mirroring the
/// paper's setup.
pub fn run_all_methods(case: &GeneratedCase, batch_size: usize) -> Vec<MethodOutcome> {
    let gold = GoldStandard::new(case.gold.clone());
    let left = &case.prepared.left_canonical;
    let right = &case.prepared.right_canonical;
    let mut out = Vec::new();

    let mut record = |method: &str, explanations: &ExplanationSet, time: Duration| {
        out.push(MethodOutcome {
            method: method.to_string(),
            explanation: explanation_accuracy(explanations, &gold),
            evidence: evidence_accuracy(&explanations.evidence, &gold),
            time,
        });
    };

    // EXPLAIN3D (smart partitioning).
    let start = Instant::now();
    let report = Explain3D::new(Explain3DConfig::batched(batch_size)).explain(
        left,
        right,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    record("EXPLAIN3D", &report.explanations, start.elapsed());

    // GREEDY.
    let start = Instant::now();
    let (greedy, _) = GreedyBaseline::default().explain(
        left,
        right,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    record("GREEDY", &greedy, start.elapsed());

    // THRESHOLD-0.9.
    let start = Instant::now();
    let threshold = ThresholdBaseline::default().explain(left, right, &case.initial_mapping);
    record("THRESHOLD-0.9", &threshold, start.elapsed());

    // RSWOOSH.
    let start = Instant::now();
    let (rswoosh, _) = RSwooshBaseline::default().explain(left, right);
    record("RSWOOSH", &rswoosh, start.elapsed());

    // EXACTCOVER.
    let start = Instant::now();
    let (exact, _) = ExactCoverBaseline::default().explain(left, right, &case.initial_mapping);
    record("EXACTCOVER", &exact, start.elapsed());

    // FORMALEXP-Top15.
    let start = Instant::now();
    let formal = FormalExpBaseline::default().explain(left, right);
    record("FORMALEXP-Top15", &formal, start.elapsed());

    out
}

/// Times one Explain3D configuration on a case (used by the Figure 7c / 8
/// runtime sweeps), returning the Stage-2 wall-clock time and the report.
pub fn time_explain3d(
    case: &GeneratedCase,
    config: Explain3DConfig,
) -> (Duration, ExplanationReport) {
    let start = Instant::now();
    let report = Explain3D::new(config).explain(
        &case.prepared.left_canonical,
        &case.prepared.right_canonical,
        &case.attribute_matches,
        &case.initial_mapping,
    );
    (start.elapsed(), report)
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use explain3d::datagen::{generate_synthetic, SyntheticConfig};

    #[test]
    fn harness_runs_all_methods_on_a_small_case() {
        let case = generate_synthetic(&SyntheticConfig::new(40, 0.2, 200));
        let outcomes = run_all_methods(&case, 40);
        assert_eq!(outcomes.len(), 6);
        let e3d = outcomes.iter().find(|o| o.method == "EXPLAIN3D").unwrap();
        assert!(e3d.explanation.f_measure > 0.8);
        // FORMALEXP never produces evidence.
        let formal = outcomes.iter().find(|o| o.method == "FORMALEXP-Top15").unwrap();
        assert_eq!(formal.evidence.derived, 0);
    }

    #[test]
    fn timing_helper_reports_durations() {
        let case = generate_synthetic(&SyntheticConfig::new(30, 0.2, 200));
        let (t, report) = time_explain3d(&case, Explain3DConfig::batched(30));
        assert!(t.as_nanos() > 0);
        assert!(report.complete);
        assert!(!secs(t).is_empty());
    }
}
