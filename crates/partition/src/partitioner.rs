//! A size-bounded graph partitioner: greedy graph growing under a maximum
//! part weight (the paper's balancing constraint `|T1,i| + |T2,j| ≤ L_max`).
//!
//! It operates on a generic weighted graph (node weights + weighted
//! undirected edges). The smart-partitioning splitter feeds it the coarse
//! graph of one oversized connected component, produced by
//! [`pre_partition`](crate::prepartition::pre_partition), which plays the
//! role of the coarsening phase of a multilevel scheme. Every grown part is
//! connected: a part only absorbs neighbours of nodes it already holds.

/// Result of partitioning a weighted graph.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedPartition {
    /// Part index per node.
    pub assignment: Vec<usize>,
    /// Number of parts actually used.
    pub num_parts: usize,
    /// Total weight of cut edges.
    pub edge_cut: f64,
    /// Parts whose weight exceeds `max_part_weight` because they hold a
    /// single node heavier than the bound. Nothing can fix those within the
    /// constraint, so they are flagged instead of hidden.
    pub oversized_parts: Vec<usize>,
}

/// Partitions a weighted graph into connected parts of total node weight at
/// most `max_part_weight` (`L_max`).
///
/// * `node_weights[i]` is the weight of node `i` (e.g. how many original
///   tuples a coarse node represents);
/// * `edges` are undirected `(a, b, weight)` triples;
/// * the result respects `max_part_weight` except for single nodes that are
///   heavier than the bound, which get a part of their own.
pub fn partition_weighted(
    node_weights: &[usize],
    edges: &[(usize, usize, f64)],
    max_part_weight: usize,
) -> WeightedPartition {
    let n = node_weights.len();
    let max_part_weight = max_part_weight.max(1);
    if n == 0 {
        return WeightedPartition {
            assignment: vec![],
            num_parts: 0,
            edge_cut: 0.0,
            oversized_parts: vec![],
        };
    }
    if node_weights.iter().sum::<usize>() <= max_part_weight {
        return WeightedPartition {
            assignment: vec![0; n],
            num_parts: 1,
            edge_cut: 0.0,
            oversized_parts: vec![],
        };
    }

    // Adjacency list.
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for &(a, b, w) in edges {
        if a == b || a >= n || b >= n {
            continue;
        }
        adj[a].push((b, w));
        adj[b].push((a, w));
    }

    // ---- Greedy graph growing ----
    // Visit nodes in order of decreasing weight (heavy clusters first), grow
    // a part by repeatedly absorbing the unassigned neighbour with the
    // strongest connection to the part until the size bound is reached.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| node_weights[b].cmp(&node_weights[a]).then(a.cmp(&b)));

    let mut assignment = vec![usize::MAX; n];
    let mut part_weights: Vec<usize> = Vec::new();

    // Connection strength of each unassigned node to the growing part.
    // One buffer for all parts: a fresh `vec![0.0; n]` per part would make
    // growing quadratic in the part count. Entries touched while growing a
    // part are recorded and reset before the next seed.
    let mut gain: Vec<f64> = vec![0.0; n];
    let mut touched: Vec<usize> = Vec::new();

    for &seed in &order {
        if assignment[seed] != usize::MAX {
            continue;
        }
        // Open a new part for this seed.
        let part = part_weights.len();
        part_weights.push(0);
        let mut frontier: Vec<usize> = vec![seed];
        gain[seed] = f64::INFINITY;
        touched.push(seed);

        while let Some(next) = pick_best(&frontier, &gain) {
            frontier.retain(|&x| x != next);
            if assignment[next] != usize::MAX {
                continue;
            }
            let w = node_weights[next];
            let fits = part_weights[part] + w <= max_part_weight || part_weights[part] == 0; // oversized singletons get their own part
            if !fits {
                continue;
            }
            assignment[next] = part;
            part_weights[part] += w;
            if part_weights[part] >= max_part_weight {
                break;
            }
            for &(nbr, ew) in &adj[next] {
                if assignment[nbr] == usize::MAX {
                    gain[nbr] += ew;
                    touched.push(nbr);
                    if !frontier.contains(&nbr) {
                        frontier.push(nbr);
                    }
                }
            }
        }
        for &t in &touched {
            gain[t] = 0.0;
        }
        touched.clear();
    }

    // A part can only exceed the bound when its seed alone does.
    let oversized_parts =
        (0..part_weights.len()).filter(|&p| part_weights[p] > max_part_weight).collect();
    let edge_cut = edges
        .iter()
        .filter(|&&(a, b, _)| a < n && b < n && assignment[a] != assignment[b])
        .map(|&(_, _, w)| w)
        .sum();

    WeightedPartition { assignment, num_parts: part_weights.len(), edge_cut, oversized_parts }
}

/// Picks the frontier node with the highest gain (ties by lowest index).
/// Gains are compared with `f64::total_cmp` so the selection stays a total
/// order — and therefore deterministic — even when NaN/±∞ gains leak in
/// through pathological edge weights (a positive NaN gain ranks highest,
/// but whichever node wins, it wins reproducibly).
fn pick_best(frontier: &[usize], gain: &[f64]) -> Option<usize> {
    frontier.iter().copied().max_by(|&a, &b| gain[a].total_cmp(&gain[b]).then(b.cmp(&a)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_graph_fits_in_one_part() {
        let weights = vec![1, 1, 1];
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let p = partition_weighted(&weights, &edges, 10);
        assert_eq!(p.num_parts, 1);
        assert_eq!(p.edge_cut, 0.0);
    }

    #[test]
    fn two_cliques_split_along_the_weak_bridge() {
        // Two triangles of heavy edges joined by one light edge.
        let weights = vec![1; 6];
        let edges = vec![
            (0, 1, 5.0),
            (1, 2, 5.0),
            (0, 2, 5.0),
            (3, 4, 5.0),
            (4, 5, 5.0),
            (3, 5, 5.0),
            (2, 3, 0.1), // bridge
        ];
        let p = partition_weighted(&weights, &edges, 3);
        assert!(p.num_parts >= 2);
        // The bridge should be the only cut edge.
        assert!((p.edge_cut - 0.1).abs() < 1e-9, "edge cut was {}", p.edge_cut);
        // All triangle members stay together.
        assert_eq!(p.assignment[0], p.assignment[1]);
        assert_eq!(p.assignment[1], p.assignment[2]);
        assert_eq!(p.assignment[3], p.assignment[4]);
        assert_eq!(p.assignment[4], p.assignment[5]);
        assert_ne!(p.assignment[0], p.assignment[3]);
    }

    #[test]
    fn nan_edge_weights_keep_growing_deterministic() {
        // Regression: `pick_best` compared gains with
        // `partial_cmp(..).unwrap_or(Equal)`, so a NaN gain (from a NaN edge
        // weight) collapsed the frontier ordering into a non-total relation
        // and the grown parts could differ between runs. `total_cmp` gives
        // NaN a fixed rank, so the assignment is reproducible.
        let weights = vec![1; 6];
        let edges = vec![(0, 1, f64::NAN), (1, 2, 1.0), (3, 4, 1.0), (4, 5, f64::NAN)];
        let first = partition_weighted(&weights, &edges, 2);
        assert_eq!(first.assignment.len(), 6);
        for _ in 0..5 {
            // Compare assignments only: the edge cut itself is NaN-poisoned.
            assert_eq!(partition_weighted(&weights, &edges, 2).assignment, first.assignment);
        }
    }

    #[test]
    fn size_bound_is_respected() {
        let weights = vec![1; 10];
        let edges: Vec<(usize, usize, f64)> = (0..9).map(|i| (i, i + 1, 1.0)).collect();
        let p = partition_weighted(&weights, &edges, 3);
        let mut sizes = vec![0usize; p.num_parts];
        for (i, &a) in p.assignment.iter().enumerate() {
            sizes[a] += weights[i];
        }
        assert!(sizes.iter().all(|&s| s <= 3), "part sizes {sizes:?}");
        assert!(p.num_parts >= 4);
    }

    #[test]
    fn oversized_single_node_gets_its_own_part() {
        let weights = vec![10, 1, 1];
        let edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let p = partition_weighted(&weights, &edges, 4);
        // Node 0 exceeds the bound on its own; it must be alone in its part.
        let part0 = p.assignment[0];
        assert!(p.assignment.iter().enumerate().filter(|&(i, _)| i != 0).all(|(_, &a)| a != part0));
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let p = partition_weighted(&[], &[], 5);
        assert_eq!(p.num_parts, 0);
        assert!(p.assignment.is_empty());

        let p = partition_weighted(&[2], &[], 5);
        assert_eq!(p.num_parts, 1);
        assert_eq!(p.assignment, vec![0]);
    }

    #[test]
    fn disconnected_nodes_are_all_assigned() {
        let weights = vec![1; 7];
        let edges = vec![(0, 1, 1.0)];
        let p = partition_weighted(&weights, &edges, 3);
        assert_eq!(p.assignment.len(), 7);
        let mut sizes = vec![0usize; p.num_parts];
        for &a in &p.assignment {
            sizes[a] += 1;
        }
        assert!(sizes.iter().all(|&s| s <= 3));
        assert_eq!(sizes.iter().sum::<usize>(), 7);
    }

    #[test]
    fn oversized_parts_are_reported() {
        let weights = vec![10, 1, 1, 1];
        let edges = vec![(1, 2, 1.0)];
        let p = partition_weighted(&weights, &edges, 4);
        assert_eq!(p.oversized_parts.len(), 1);
        let oversized = p.oversized_parts[0];
        assert_eq!(p.assignment[0], oversized);
        assert!((1..4).all(|i| p.assignment[i] != oversized));
    }

    #[test]
    fn growing_cuts_only_weak_links_on_a_chain() {
        // A chain with strongly-coupled pairs; a good partition cuts only
        // weak links.
        let weights = vec![1; 8];
        let mut edges = Vec::new();
        for i in (0..8).step_by(2) {
            edges.push((i, i + 1, 10.0));
        }
        for i in (1..7).step_by(2) {
            edges.push((i, i + 1, 0.5));
        }
        let p = partition_weighted(&weights, &edges, 2);
        // Strong pairs must never be separated.
        for i in (0..8).step_by(2) {
            assert_eq!(p.assignment[i], p.assignment[i + 1], "pair {i} split");
        }
        assert!(p.edge_cut <= 1.5 + 1e-9);
    }
}
