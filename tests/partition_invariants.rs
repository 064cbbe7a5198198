//! Property tests pinning the smart partitioner's invariants.
//!
//! `smart_partition` makes each connected component within the batch a
//! part of its own and splits only larger components, along low-weight
//! edges. For *every* input graph it must uphold:
//!
//! 1. **Exactly-one-part**: every node is assigned to exactly one part and
//!    every part id is in range.
//! 2. **Bound**: no part exceeds the batch bound — except parts flagged as
//!    oversized, which hold a single contracted high-probability cluster
//!    that is itself larger than the batch.
//! 3. **Per component**: no part spans two connected components, and every
//!    component within the batch is exactly one part.
//! 4. **Determinism**: re-running produces an identical partition.
//! 5. **Semantics**: high-probability matches are never cut.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::partition::{smart_partition, MappingGraph, SmartPartition, SmartPartitionConfig};

/// A random bipartite mapping graph: `left`×`right` nodes, `edges` random
/// matches with mixed probabilities (some high, some mid, some low).
fn random_graph(seed: u64, left: usize, right: usize, edges: usize) -> MappingGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = MappingGraph::new(left, right);
    for _ in 0..edges {
        let i = rng.gen_range(0..left);
        let j = rng.gen_range(0..right);
        let p = match rng.gen_range(0..10u32) {
            0..=2 => 0.9 + rng.gen_range(0..10u32) as f64 / 100.0, // high
            3..=4 => rng.gen_range(1..10u32) as f64 / 100.0,       // low
            _ => rng.gen_range(15..85u32) as f64 / 100.0,          // mid
        };
        g.add_edge(i, j, p);
    }
    g
}

/// Asserts all structural invariants of a smart partition on `g`.
fn assert_invariants(g: &MappingGraph, cfg: &SmartPartitionConfig, split: &SmartPartition) {
    let n = g.node_count();
    let partition = split.partition(g);

    // 1. Exactly one part per node, all ids in range.
    assert_eq!(partition.assignment().len(), n, "assignment covers every node");
    assert!(partition.assignment().iter().all(|&p| p < partition.num_parts()), "part ids in range");
    let sizes = partition.part_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), n, "part sizes sum to the node count");

    // 2. The batch bound holds for every non-flagged part; flagged parts
    // are genuinely oversized (otherwise the flag is meaningless).
    for (part, &size) in sizes.iter().enumerate() {
        if split.oversized_parts.contains(&part) {
            assert!(size > cfg.batch_size, "flagged part {part} is not oversized ({size})");
        } else {
            assert!(
                size <= cfg.batch_size,
                "part {part} has {size} tuples for batch {}",
                cfg.batch_size
            );
        }
    }

    // 3. No part spans two components; a component within the batch is
    // exactly one part.
    let mut component_of_part = vec![usize::MAX; partition.num_parts()];
    for (c, component) in g.connected_components().iter().enumerate() {
        let nodes: Vec<usize> = component
            .left
            .iter()
            .map(|&i| g.left_id(i))
            .chain(component.right.iter().map(|&j| g.right_id(j)))
            .collect();
        for &id in &nodes {
            let part = partition.part_of(id);
            assert!(
                component_of_part[part] == usize::MAX || component_of_part[part] == c,
                "part {part} spans components {} and {c}",
                component_of_part[part]
            );
            component_of_part[part] = c;
        }
        if component.size() <= cfg.batch_size {
            let part = partition.part_of(nodes[0]);
            assert_eq!(sizes[part], component.size(), "component {c} is not one whole part");
        }
    }

    // 5. High-probability matches are never cut.
    for e in g.edges() {
        if cfg.scheme.is_high(e.weight) {
            assert_eq!(
                partition.part_of(g.left_id(e.left)),
                partition.part_of(g.right_id(e.right)),
                "high-probability match ({}, {}) was cut",
                e.left,
                e.right
            );
        }
    }
}

fn check_seeds(seeds: std::ops::Range<u64>, left: usize, right: usize, edges: usize) {
    for seed in seeds {
        let g = random_graph(seed, left, right, edges);
        for batch in [4usize, 10, 25, 75] {
            let cfg = SmartPartitionConfig::with_batch_size(batch);
            let split = smart_partition(&g, &cfg);
            assert_invariants(&g, &cfg, &split);
            // 4. Determinism across runs.
            let again = smart_partition(&g, &cfg);
            assert_eq!(split, again, "seed {seed} batch {batch} is nondeterministic");
        }
    }
}

#[test]
fn packed_partition_invariants_hold_on_random_graphs() {
    check_seeds(0..20, 40, 35, 90);
}

#[test]
fn packed_partition_invariants_hold_on_sparse_and_dense_graphs() {
    check_seeds(100..108, 60, 60, 20); // mostly isolated nodes
    check_seeds(200..208, 25, 25, 250); // dense multigraph
}

/// Larger seeded graphs for the `--include-ignored` stress lane in CI.
#[test]
#[ignore = "stress suite: run with --include-ignored"]
fn packed_partition_invariants_hold_on_large_graphs() {
    check_seeds(300..310, 400, 380, 1200);
    check_seeds(400..404, 1000, 1000, 3000);
}

#[test]
fn bench_shaped_workload_is_one_part_per_component() {
    // The synthetic bench shape: many small high-probability components,
    // all within the batch. Nothing is split; each component is one part.
    let mut g = MappingGraph::new(240, 240);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..240 {
        g.add_edge(i, i, 0.92 + rng.gen_range(0..8u32) as f64 / 100.0);
        if i % 3 == 0 && i + 1 < 240 {
            g.add_edge(i, i + 1, 0.2); // occasional weak link
        }
    }
    let cfg = SmartPartitionConfig::with_batch_size(60);
    let split = smart_partition(&g, &cfg);
    assert_invariants(&g, &cfg, &split);
    assert_eq!(split.split_components, 0);
    assert!(split.oversized_parts.is_empty());
    assert_eq!(split.parts.len(), g.connected_components().len());
    assert_eq!(split.parts.len(), 160, "80 linked pairs of couples + 80 lone couples");
}

#[test]
fn empty_and_singleton_graphs_are_handled() {
    let empty = MappingGraph::new(0, 0);
    let cfg = SmartPartitionConfig::with_batch_size(10);
    let split = smart_partition(&empty, &cfg);
    assert!(split.parts.is_empty());
    assert!(split.partition(&empty).assignment().is_empty());
    assert_eq!(split.split_components, 0);
    assert!(split.oversized_parts.is_empty());

    // A single left node, no right nodes, no edges.
    let singleton = MappingGraph::new(1, 0);
    let split = smart_partition(&singleton, &cfg);
    assert_eq!(split.partition(&singleton).assignment(), &[0]);
    assert_eq!(split.parts.len(), 1);
    assert!(split.oversized_parts.is_empty());

    // One isolated node on each side: two components, two parts.
    let two = MappingGraph::new(1, 1);
    let split = smart_partition(&two, &cfg);
    assert_eq!(split.partition(&two).assignment(), &[0, 1]);
    assert_eq!(split.parts.len(), 2);

    // Batch size 1 on a two-node graph with no edges: two parts.
    let cfg1 = SmartPartitionConfig::with_batch_size(1);
    let split = smart_partition(&two, &cfg1);
    assert_eq!(split.parts.len(), 2);
    assert_eq!(split.split_components, 0);

    // Batch size 1 with a high-probability match: the 2-node cluster cannot
    // be split, so it becomes a single flagged oversized part.
    let mut matched = MappingGraph::new(1, 1);
    matched.add_edge(0, 0, 0.95);
    let split = smart_partition(&matched, &cfg1);
    assert_eq!(split.parts.len(), 1);
    assert_eq!(split.oversized_parts, vec![0]);
    assert_eq!(split.split_components, 0);
}
