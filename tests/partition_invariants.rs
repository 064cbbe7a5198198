//! Property tests pinning the batch-packing partitioner's invariants.
//!
//! The packing rework of `smart_partition` (first-fit-decreasing packing of
//! connected components, splitting of oversized components along low-weight
//! edges) must uphold, for *every* input graph:
//!
//! 1. **Exactly-one-part**: every node is assigned to exactly one part and
//!    every part id is in range.
//! 2. **Bound**: no part exceeds the batch bound — except parts flagged as
//!    oversized, which hold a single contracted high-probability cluster
//!    that is itself larger than the batch.
//! 3. **Count**: the part count is bounded — `≤ target + splits` on
//!    pack-friendly workloads (the bench shape), and never more than
//!    `2·target + 1` in general (the first-fit guarantee: no two parts can
//!    be merged within the bound, so at most one part is half-empty).
//! 4. **Determinism**: re-running produces an identical assignment.
//! 5. **Semantics**: high-probability matches are never cut.

use explain3d::datagen::rng::{Rng, SeedableRng, StdRng};
use explain3d::partition::{
    smart_partition, smart_partition_packed, MappingGraph, PackedPartition, SmartPartitionConfig,
};

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

/// Asserts all structural invariants of a packed partition on `g`.
fn assert_invariants(g: &MappingGraph, cfg: &SmartPartitionConfig, packed: &PackedPartition) {
    let n = g.node_count();
    let partition = &packed.partition;

    // 1. Exactly one part per node, all ids in range.
    assert_eq!(partition.assignment().len(), n, "assignment covers every node");
    assert!(partition.assignment().iter().all(|&p| p < partition.num_parts()), "part ids in range");
    let sizes = partition.part_sizes();
    assert_eq!(sizes.iter().sum::<usize>(), n, "part sizes sum to the node count");

    // 2. The batch bound holds for every non-flagged part; flagged parts
    // are genuinely oversized (otherwise the flag is meaningless).
    for (part, &size) in sizes.iter().enumerate() {
        if packed.oversized_parts.contains(&part) {
            assert!(size > cfg.batch_size, "flagged part {part} is not oversized ({size})");
        } else {
            assert!(
                size <= cfg.batch_size,
                "part {part} has {size} tuples for batch {}",
                cfg.batch_size
            );
        }
    }

    // 3. Part-count bound from the first-fit guarantee.
    let target = cfg.num_partitions(n);
    assert!(
        partition.num_parts() <= 2 * target + 1,
        "{} parts for target {target}",
        partition.num_parts()
    );
    assert_eq!(packed.target_parts, target);

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
            let packed = smart_partition_packed(&g, &cfg);
            assert_invariants(&g, &cfg, &packed);
            // 4. Determinism across runs, and agreement with the plain API.
            let again = smart_partition_packed(&g, &cfg);
            assert_eq!(packed, again, "seed {seed} batch {batch} is nondeterministic");
            assert_eq!(smart_partition(&g, &cfg), packed.partition);
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
fn bench_shaped_workload_packs_to_target_plus_splits() {
    // The synthetic bench shape: many small high-probability components
    // (once a 213-part regression). Packing must land within target +
    // splits, with parts bounded by the batch.
    let mut g = MappingGraph::new(240, 240);
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..240 {
        g.add_edge(i, i, 0.92 + rng.gen_range(0..8u32) as f64 / 100.0);
        if i % 3 == 0 && i + 1 < 240 {
            g.add_edge(i, i + 1, 0.2); // occasional weak link
        }
    }
    let cfg = SmartPartitionConfig::with_batch_size(60);
    let packed = smart_partition_packed(&g, &cfg);
    assert_invariants(&g, &cfg, &packed);
    assert_eq!(packed.target_parts, 8, "480 nodes / batch 60");
    assert!(
        packed.partition.num_parts()
            <= packed.target_parts + packed.split_components + packed.oversized_parts.len(),
        "{} parts for target {} + {} splits + {} oversized",
        packed.partition.num_parts(),
        packed.target_parts,
        packed.split_components,
        packed.oversized_parts.len()
    );
    assert!(packed.partition.num_parts() >= 8, "the batch bound forces at least k parts");
}

#[test]
fn empty_and_singleton_graphs_are_handled() {
    let empty = MappingGraph::new(0, 0);
    let cfg = SmartPartitionConfig::with_batch_size(10);
    let packed = smart_partition_packed(&empty, &cfg);
    assert!(packed.partition.assignment().is_empty());
    assert_eq!(packed.split_components, 0);
    assert!(packed.oversized_parts.is_empty());
    assert_eq!(smart_partition(&empty, &cfg).assignment().len(), 0);

    // A single left node, no right nodes, no edges.
    let singleton = MappingGraph::new(1, 0);
    let packed = smart_partition_packed(&singleton, &cfg);
    assert_eq!(packed.partition.assignment(), &[0]);
    assert_eq!(packed.partition.num_parts(), 1);
    assert!(packed.oversized_parts.is_empty());

    // One isolated node on each side.
    let two = MappingGraph::new(1, 1);
    let packed = smart_partition_packed(&two, &cfg);
    assert_eq!(packed.partition.assignment().len(), 2);
    assert_eq!(packed.partition.num_parts(), 1);

    // Batch size 1 on a two-node graph with no edges: two parts.
    let cfg1 = SmartPartitionConfig::with_batch_size(1);
    let packed = smart_partition_packed(&two, &cfg1);
    assert_eq!(packed.partition.num_parts(), 2);
    assert_eq!(packed.target_parts, 2);

    // Batch size 1 with a high-probability match: the 2-node cluster cannot
    // be split, so it becomes a single flagged oversized part.
    let mut matched = MappingGraph::new(1, 1);
    matched.add_edge(0, 0, 0.95);
    let packed = smart_partition_packed(&matched, &cfg1);
    assert_eq!(packed.partition.num_parts(), 1);
    assert_eq!(packed.oversized_parts, vec![0]);
}
