//! Smart partitioning (Algorithm 3), one connected component at a time.
//!
//! Stage 2's objective decomposes over the connected components of the
//! mapping graph, so every component within the batch bound is a part of
//! its own. Only a component larger than the batch goes to the splitter:
//! pre-partition it (Algorithm 2), grow size-bounded parts over its coarse
//! graph, and project the assignment back onto its tuples. Parts come out
//! in component order (by smallest global node id), so a component's parts
//! depend on its own tuples and edges alone.

use crate::graph::{Component, MappingGraph, Partition};
use crate::partitioner::partition_weighted;
use crate::prepartition::pre_partition;
use crate::weights::WeightScheme;

/// Configuration of the smart-partitioning optimiser.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmartPartitionConfig {
    /// Edge re-weighting scheme (`θ_l`, `θ_h`, `R`).
    pub scheme: WeightScheme,
    /// Batch bound `L_max`: the most tuples a part may hold, unless it is
    /// one high-probability cluster larger than the batch.
    pub batch_size: usize,
}

impl SmartPartitionConfig {
    /// Creates a configuration with the paper's default weight scheme.
    pub fn with_batch_size(batch_size: usize) -> Self {
        SmartPartitionConfig { scheme: WeightScheme::default(), batch_size: batch_size.max(1) }
    }
}

impl Default for SmartPartitionConfig {
    fn default() -> Self {
        SmartPartitionConfig::with_batch_size(1000)
    }
}

/// The parts of a smart partition plus what the splitter had to do.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SmartPartition {
    /// The parts in component order, each with its tuples and its own
    /// edges. A part is one connected component: a whole component within
    /// the batch, or a piece of a split one (pieces are connected because
    /// greedy growing only absorbs neighbours of what a part already holds).
    pub parts: Vec<Component>,
    /// Connected components larger than the batch that were split across
    /// parts. Every split cuts only re-weighted (low-weight) edges;
    /// high-probability clusters are contracted before splitting and never
    /// cut.
    pub split_components: usize,
    /// Parts whose size exceeds the batch bound. This happens only when a
    /// single contracted high-probability cluster is itself larger than the
    /// batch: such a cluster must not be cut, so it gets a flagged part of
    /// its own instead of a silent constraint violation.
    pub oversized_parts: Vec<usize>,
}

impl SmartPartition {
    /// The node → part assignment over `graph`'s global node ids (the graph
    /// this partition was computed on).
    pub fn partition(&self, graph: &MappingGraph) -> Partition {
        let mut assignment = vec![0usize; graph.node_count()];
        for (p, part) in self.parts.iter().enumerate() {
            for &i in &part.left {
                assignment[graph.left_id(i)] = p;
            }
            for &j in &part.right {
                assignment[graph.right_id(j)] = p;
            }
        }
        Partition::new(assignment, self.parts.len())
    }
}

/// Runs Algorithm 3 on the mapping graph: one part per connected component
/// within `config.batch_size`, and the splitter on each larger component.
pub fn smart_partition(graph: &MappingGraph, config: &SmartPartitionConfig) -> SmartPartition {
    let mut out = SmartPartition::default();
    for component in graph.connected_components() {
        if component.size() <= config.batch_size {
            out.parts.push(component);
            continue;
        }
        let (pieces, oversized) = split_component(graph, &component, config);
        if pieces.len() > 1 {
            out.split_components += 1;
        }
        out.oversized_parts.extend(oversized.into_iter().map(|p| out.parts.len() + p));
        out.parts.extend(pieces);
    }
    out
}

/// Splits one oversized component: pre-partition (Algorithm 2) its local
/// copy of the graph, grow parts of at most `batch_size` tuples over the
/// coarse graph, and project them back (Algorithm 3, lines 1–6). Returns
/// the pieces in global coordinates plus the indexes of the pieces that
/// are one cluster larger than the batch.
fn split_component(
    graph: &MappingGraph,
    component: &Component,
    config: &SmartPartitionConfig,
) -> (Vec<Component>, Vec<usize>) {
    // Local ids are positions in the component's sorted tuple lists, and
    // local edges follow its ascending edge list, so mapping back
    // preserves global order.
    let local_id =
        |ids: &[usize], id: usize| ids.binary_search(&id).expect("edge inside component");
    let mut local = MappingGraph::new(component.left.len(), component.right.len());
    for &e in &component.edges {
        let edge = graph.edges()[e];
        local.add_edge(
            local_id(&component.left, edge.left),
            local_id(&component.right, edge.right),
            edge.weight,
        );
    }

    let coarse = pre_partition(&local, &config.scheme);
    let weighted = partition_weighted(&coarse.node_weights(), &coarse.edges, config.batch_size);
    let assignment = coarse.cluster_of.iter().map(|&c| weighted.assignment[c]).collect();
    let pieces = Partition::new(assignment, weighted.num_parts)
        .parts(&local)
        .into_iter()
        .map(|piece| Component {
            left: piece.left.iter().map(|&k| component.left[k]).collect(),
            right: piece.right.iter().map(|&k| component.right[k]).collect(),
            edges: piece.edges.iter().map(|&k| component.edges[k]).collect(),
        })
        .collect();
    (pieces, weighted.oversized_parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsu::DisjointSet;

    /// A graph of `pairs` (left, right) couples joined by 0.95-probability
    /// matches, with consecutive couples linked by weak 0.2 matches.
    fn chained_pairs(pairs: usize) -> MappingGraph {
        let mut g = MappingGraph::new(pairs, pairs);
        for i in 0..pairs {
            g.add_edge(i, i, 0.95);
            if i + 1 < pairs {
                g.add_edge(i, i + 1, 0.2);
            }
        }
        g
    }

    #[test]
    fn small_graphs_stay_whole() {
        let g = chained_pairs(5);
        let cfg = SmartPartitionConfig::with_batch_size(100);
        let p = smart_partition(&g, &cfg).partition(&g);
        assert_eq!(p.num_parts(), 1);
        assert_eq!(g.edge_cut(&p), 0.0);
    }

    #[test]
    fn high_probability_matches_are_never_cut() {
        let g = chained_pairs(50);
        let cfg = SmartPartitionConfig::with_batch_size(10);
        let p = smart_partition(&g, &cfg).partition(&g);
        assert!(p.num_parts() > 1);
        for e in g.edges() {
            if e.weight >= 0.9 {
                assert_eq!(
                    p.part_of(g.left_id(e.left)),
                    p.part_of(g.right_id(e.right)),
                    "high-probability match ({}, {}) was cut",
                    e.left,
                    e.right
                );
            }
        }
    }

    #[test]
    fn partition_sizes_respect_the_batch_bound() {
        let g = chained_pairs(60);
        let cfg = SmartPartitionConfig::with_batch_size(16);
        let p = smart_partition(&g, &cfg).partition(&g);
        assert!(p.max_part_size() <= 16, "max part size {}", p.max_part_size());
        // Every node is assigned.
        assert_eq!(p.assignment().len(), g.node_count());
    }

    #[test]
    fn number_of_partitions_tracks_batch_size() {
        // Two 20-node chains: one part each while they fit the batch, more
        // parts as the batch shrinks below them.
        let mut g = MappingGraph::new(20, 20);
        for offset in [0, 10] {
            for i in offset..offset + 10 {
                g.add_edge(i, i, 0.95);
                if i + 1 < offset + 10 {
                    g.add_edge(i, i + 1, 0.2);
                }
            }
        }
        let parts = |batch| smart_partition(&g, &SmartPartitionConfig::with_batch_size(batch));
        assert_eq!(parts(1000).parts.len(), 2);
        assert_eq!(parts(20).parts.len(), 2);
        assert_eq!(parts(20).split_components, 0);
        let mut previous = 2;
        for batch in [16, 10, 6, 4, 2] {
            let p = parts(batch);
            assert_eq!(p.split_components, 2, "batch {batch}");
            assert!(p.parts.len() >= 40usize.div_ceil(batch), "batch {batch}");
            assert!(p.parts.len() >= previous, "batch {batch}");
            previous = p.parts.len();
        }
    }

    #[test]
    fn cut_prefers_weak_edges() {
        let g = chained_pairs(40);
        let cfg = SmartPartitionConfig::with_batch_size(20);
        let p = smart_partition(&g, &cfg).partition(&g);
        // The cut should consist only of the weak 0.2 chain links, so it is
        // bounded by 0.2 times the number of parts.
        let cut = g.edge_cut(&p);
        assert!(cut <= 0.2 * p.num_parts() as f64 + 1e-9, "cut {cut}");
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = MappingGraph::new(0, 0);
        let p = smart_partition(&g, &SmartPartitionConfig::default()).partition(&g);
        assert_eq!(p.assignment().len(), 0);
    }

    #[test]
    fn each_component_within_the_batch_is_its_own_part() {
        // 120 disconnected couples plus one isolated right tuple.
        let mut g = MappingGraph::new(120, 121);
        for i in 0..120 {
            g.add_edge(i, i, 0.95);
        }
        let split = smart_partition(&g, &SmartPartitionConfig::with_batch_size(60));
        assert_eq!(split.parts.len(), 121);
        assert_eq!(split.split_components, 0);
        assert!(split.oversized_parts.is_empty());
        assert_eq!(split.parts, g.connected_components());
    }

    #[test]
    fn oversized_clusters_are_flagged_not_split() {
        // One chain of 6 high-probability matches contracts into a single
        // 12-node cluster that cannot fit a batch of 8.
        let mut g = MappingGraph::new(8, 8);
        for i in 0..6 {
            g.add_edge(i, i, 0.95);
            g.add_edge(i + 1, i, 0.95); // chains the couples together
        }
        g.add_edge(7, 7, 0.95); // a separate small couple
        let cfg = SmartPartitionConfig::with_batch_size(8);
        let split = smart_partition(&g, &cfg);
        assert_eq!(split.oversized_parts.len(), 1, "the 13-node cluster must be flagged");
        let oversized = split.oversized_parts[0];
        let partition = split.partition(&g);
        // The oversized part contains the whole cluster (never cut) ...
        for i in 0..7 {
            assert_eq!(partition.part_of(g.left_id(i)), oversized);
        }
        // ... and nothing else.
        assert_ne!(partition.part_of(g.left_id(7)), oversized);
        assert_eq!(split.split_components, 0);
    }

    #[test]
    fn oversized_components_split_along_weak_edges_and_are_counted() {
        // One 60-node component chained by weak links: must split into
        // parts of at most 16, counted as a single split component.
        let g = chained_pairs(30);
        let cfg = SmartPartitionConfig::with_batch_size(16);
        let split = smart_partition(&g, &cfg);
        assert_eq!(split.split_components, 1);
        assert!(split.oversized_parts.is_empty());
        let partition = split.partition(&g);
        assert!(partition.max_part_size() <= 16);
        assert!(partition.num_parts() >= 4, "60 nodes need at least 4 parts of 16");
    }

    #[test]
    fn split_pieces_are_connected_and_tile_the_component() {
        let g = chained_pairs(40);
        let split = smart_partition(&g, &SmartPartitionConfig::with_batch_size(20));
        assert_eq!(split.split_components, 1);
        for piece in &split.parts {
            // A piece holds exactly the edges between its own tuples ...
            let inner: Vec<usize> = (0..g.edge_count())
                .filter(|&e| {
                    let edge = g.edges()[e];
                    piece.left.contains(&edge.left) && piece.right.contains(&edge.right)
                })
                .collect();
            assert_eq!(piece.edges, inner);
            // ... and they connect all of them.
            let mut dsu = DisjointSet::new(g.node_count());
            for &e in &piece.edges {
                let edge = g.edges()[e];
                dsu.union(g.left_id(edge.left), g.right_id(edge.right));
            }
            let root = dsu.find(g.left_id(piece.left[0]));
            for &j in &piece.right {
                assert_eq!(dsu.find(g.right_id(j)), root, "piece {piece:?} is not connected");
            }
            for &i in &piece.left {
                assert_eq!(dsu.find(g.left_id(i)), root, "piece {piece:?} is not connected");
            }
        }
        // Together the pieces hold every tuple exactly once.
        let mut left: Vec<usize> = split.parts.iter().flat_map(|p| p.left.clone()).collect();
        let mut right: Vec<usize> = split.parts.iter().flat_map(|p| p.right.clone()).collect();
        left.sort_unstable();
        right.sort_unstable();
        assert_eq!(left, (0..g.left_count()).collect::<Vec<_>>());
        assert_eq!(right, (0..g.right_count()).collect::<Vec<_>>());
    }

    #[test]
    fn default_config_uses_paper_batch_size() {
        let cfg = SmartPartitionConfig::default();
        assert_eq!(cfg.batch_size, 1000);
        assert_eq!(cfg.scheme, WeightScheme::default());
    }
}
