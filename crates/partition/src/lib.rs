//! # explain3d-partition
//!
//! Graph-partitioning substrate for the Explain3D reproduction (VLDB 2019).
//! The paper's smart-partitioning optimiser (Section 4) splits the bipartite
//! mapping graph `G = (T1, T2, M_tuple)` into bounded-size sub-problems.
//! Stage 2's objective decomposes over connected components, so each
//! component within the batch bound is a part of its own. A larger
//! component is split by (1) re-weighting edges so high-probability matches
//! are expensive to cut, (2) pre-merging tuples connected by
//! high-probability matches (Algorithm 2), (3) growing size-bounded parts
//! over the coarse graph, and (4) projecting the assignment back
//! (Algorithm 3).
//!
//! The paper uses METIS/hMETIS as the off-the-shelf partitioner; this crate
//! ships its own size-bounded greedy graph grower instead.

#![warn(missing_docs)]

pub mod dsu;
pub mod graph;
pub mod partitioner;
pub mod prepartition;
pub mod smart;
pub mod weights;

pub use dsu::DisjointSet;
pub use graph::{Component, GraphEdge, MappingGraph, Node, Partition};
pub use partitioner::{partition_weighted, WeightedPartition};
pub use prepartition::{pre_partition, CoarseGraph};
pub use smart::{smart_partition, SmartPartition, SmartPartitionConfig};
pub use weights::WeightScheme;
