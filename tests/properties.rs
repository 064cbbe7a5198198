//! Property-based tests over the core invariants of the reproduction.
//!
//! crates.io is unreachable in this build environment, so instead of
//! `proptest` these tests drive the same invariants from the workspace's own
//! deterministic PRNG (`explain3d::datagen::rng`): each property runs over a
//! fixed set of seeds, every seed producing one random instance.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::prelude::*;

/// Builds a canonical relation from `(key, impact)` pairs.
fn canon(name: &str, entries: &[(String, f64)]) -> CanonicalRelation {
    CanonicalRelation {
        query_name: name.to_string(),
        schema: Schema::from_pairs(&[("k", ValueType::Str)]),
        key_attrs: vec!["k".to_string()],
        tuples: entries
            .iter()
            .enumerate()
            .map(|(i, (k, imp))| CanonicalTuple {
                id: i,
                key: vec![Value::str(k.clone())],
                impact: *imp,
                members: vec![i],
                representative: Row::new(vec![Value::str(k.clone())]),
            })
            .collect(),
        aggregate: None,
    }
}

/// `(key, impact)` entries of one side of a random instance.
type Entries = Vec<(String, f64)>;

/// A random small instance: up to 6 entities per side, random impacts,
/// random drops on the right, and a noisy initial mapping.
fn small_instance(rng: &mut StdRng) -> (Entries, Entries, Vec<(usize, usize, f64)>) {
    let n = rng.gen_range(2..6usize);
    let left: Vec<(String, f64)> =
        (0..n).map(|i| (format!("entity {i}"), rng.gen_range(1..=4i64) as f64)).collect();
    let keep: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
    let right: Vec<(String, f64)> = (0..n)
        .filter(|&i| keep[i])
        .map(|i| (format!("entity {i}"), rng.gen_range(1..=4i64) as f64))
        .collect();
    // Initial mapping: correct pairs with high probability plus a few noise
    // pairs with low probability.
    let mut matches = Vec::new();
    for (i, (lk, _)) in left.iter().enumerate() {
        for (j, (rk, _)) in right.iter().enumerate() {
            if lk == rk {
                matches.push((i, j, 0.9));
            } else if (i + j) % 3 == 0 {
                matches.push((i, j, 0.2));
            }
        }
    }
    (left, right, matches)
}

fn build_mapping(matches: &[(usize, usize, f64)]) -> TupleMapping {
    matches.iter().map(|&(l, r, p)| TupleMatch::new(l, r, p)).collect()
}

/// Explain3D's result is always *complete*: applying the explanations
/// reconciles the two canonical relations (Definition 3.4).
#[test]
fn explain3d_results_are_always_complete() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (left, right, matches) = small_instance(&mut rng);
        let t1 = canon("Q1", &left);
        let t2 = canon("Q2", &right);
        let mapping = build_mapping(&matches);
        let attr = AttributeMatches::single_equivalent("k", "k");
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr, &mapping);
        assert!(report.complete, "seed {seed}: incomplete explanations: {:?}", report.explanations);
        // The score of the returned explanations never exceeds zero and is finite.
        assert!(report.log_probability.is_finite());
        assert!(report.log_probability <= 0.0);
    }
}

/// The optimal explanations never score worse than the trivial complete
/// solution that removes every tuple and drops every match.
#[test]
fn explain3d_not_worse_than_trivial_solution() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let (left, right, matches) = small_instance(&mut rng);
        let t1 = canon("Q1", &left);
        let t2 = canon("Q2", &right);
        let mapping = build_mapping(&matches);
        let attr = AttributeMatches::single_equivalent("k", "k");
        let params = ProbabilityParams::default();
        let report = Explain3D::with_defaults().explain(&t1, &t2, &attr, &mapping);

        let mut trivial = ExplanationSet::new();
        for i in 0..t1.len() {
            trivial.add_provenance(Side::Left, i);
        }
        for j in 0..t2.len() {
            trivial.add_provenance(Side::Right, j);
        }
        let trivial_score = log_probability(&trivial, &t1, &t2, &mapping, &params);
        assert!(
            report.log_probability >= trivial_score - 1e-6,
            "seed {seed}: optimal {} worse than trivial {}",
            report.log_probability,
            trivial_score
        );
    }
}

/// Partitioned and un-partitioned runs agree on completeness and produce
/// valid evidence mappings (degree constraints).
#[test]
fn evidence_respects_cardinality() {
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let (left, right, matches) = small_instance(&mut rng);
        let t1 = canon("Q1", &left);
        let t2 = canon("Q2", &right);
        let mapping = build_mapping(&matches);
        let attr = AttributeMatches::single_equivalent("k", "k");
        for config in [Explain3DConfig::no_opt(), Explain3DConfig::batched(4)] {
            let report = Explain3D::new(config).explain(&t1, &t2, &attr, &mapping);
            for (l, ms) in report.explanations.evidence.by_left() {
                assert!(ms.len() <= 1, "left tuple {l} matched {} times", ms.len());
            }
            for (r, ms) in report.explanations.evidence.by_right() {
                assert!(ms.len() <= 1, "right tuple {r} matched {} times", ms.len());
            }
            assert!(report.complete);
        }
    }
}

/// A random string over `[a-z ]` of length `0..=20`.
fn random_text(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..=20usize);
    (0..len)
        .map(|_| {
            let c = rng.gen_range(0..27u32);
            if c == 26 {
                ' '
            } else {
                (b'a' + c as u8) as char
            }
        })
        .collect()
}

/// Token-wise Jaccard similarity is symmetric, bounded, and reflexive.
#[test]
fn jaccard_similarity_properties() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let a = random_text(&mut rng);
        let b = random_text(&mut rng);
        let ab = explain3d::linkage::jaccard(&a, &b);
        let ba = explain3d::linkage::jaccard(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&ab));
        assert!((explain3d::linkage::jaccard(&a, &a) - 1.0).abs() < 1e-12);
    }
}

/// The MILP solver respects its own model: solutions satisfy every
/// constraint and integrality requirement of random small knapsacks.
#[test]
fn milp_solutions_are_feasible() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let n = rng.gen_range(2..6usize);
        let values: Vec<f64> =
            (0..n).map(|_| 1.0 + rng.gen_range(0..900u32) as f64 / 100.0).collect();
        let weights: Vec<f64> =
            (0..n).map(|_| 1.0 + rng.gen_range(0..400u32) as f64 / 100.0).collect();
        let capacity = 3.0 + rng.gen_range(0..900u32) as f64 / 100.0;

        let mut model = explain3d::milp::Model::new();
        let vars: Vec<_> = (0..n).map(|i| model.add_binary(format!("x{i}"))).collect();
        let mut cap = explain3d::milp::LinExpr::zero();
        let mut obj = explain3d::milp::LinExpr::zero();
        for i in 0..n {
            cap.add_term(vars[i], weights[i]);
            obj.add_term(vars[i], values[i]);
        }
        model.add_le("capacity", cap, capacity);
        model.maximize(obj);
        let sol = explain3d::milp::solve_default(&model);
        assert!(sol.status.has_solution());
        assert!(model.violations(&sol.values, 1e-6).is_empty());
        // Exhaustive check: no feasible subset beats the reported optimum.
        let mut best = 0.0f64;
        for mask in 0u32..(1 << n) {
            let w: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| weights[i]).sum();
            if w <= capacity + 1e-9 {
                let v: f64 = (0..n).filter(|i| mask & (1 << i) != 0).map(|i| values[i]).sum();
                best = best.max(v);
            }
        }
        assert!(
            (sol.objective - best).abs() < 1e-6,
            "seed {seed}: solver {} vs brute force {}",
            sol.objective,
            best
        );
    }
}

/// Graph partitioning covers every node exactly once and respects the size
/// bound.
#[test]
fn partitioning_is_a_proper_cover() {
    use explain3d::partition::{smart_partition, MappingGraph, SmartPartitionConfig};
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let pairs = rng.gen_range(2..30usize);
        let batch = rng.gen_range(4..16usize);
        let mut g = MappingGraph::new(pairs, pairs);
        for i in 0..pairs {
            g.add_edge(i, i, 0.95);
            if i + 1 < pairs {
                g.add_edge(i, i + 1, 0.3);
            }
        }
        let p = smart_partition(&g, &SmartPartitionConfig::with_batch_size(batch)).partition(&g);
        assert_eq!(p.assignment().len(), g.node_count());
        assert!(p.max_part_size() <= batch.max(2));
        let covered: usize = p.part_sizes().iter().sum();
        assert_eq!(covered, g.node_count());
    }
}
