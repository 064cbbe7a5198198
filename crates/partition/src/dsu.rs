//! Disjoint-set (union-find) structure used by connected components and by
//! the pre-partitioning merge step.

/// Union-find with path compression and union by size.
#[derive(Debug, Clone)]
pub struct DisjointSet {
    parent: Vec<usize>,
    size: Vec<usize>,
    components: usize,
}

impl DisjointSet {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        DisjointSet { parent: (0..n).collect(), size: vec![1; n], components: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently tracked.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of the set containing `x`.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `a` and `b`. Returns true when a merge
    /// actually happened (they were previously disjoint).
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        if self.size[ra] < self.size[rb] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb] = ra;
        self.size[ra] += self.size[rb];
        self.components -= 1;
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Size of the set containing `x`.
    pub fn size_of(&mut self, x: usize) -> usize {
        let r = self.find(x);
        self.size[r]
    }

    /// Groups element indexes by their set representative, in ascending
    /// order of the smallest member of each group (deterministic).
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        // Scanning elements in ascending order opens each group at its
        // smallest member, so groups come out in that order already.
        let mut group_of_root = vec![usize::MAX; self.len()];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for x in 0..self.len() {
            let r = self.find(x);
            if group_of_root[r] == usize::MAX {
                group_of_root[r] = groups.len();
                groups.push(Vec::new());
            }
            groups[group_of_root[r]].push(x);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_and_find() {
        let mut d = DisjointSet::new(5);
        assert_eq!(d.num_components(), 5);
        assert!(d.union(0, 1));
        assert!(d.union(1, 2));
        assert!(!d.union(0, 2));
        assert!(d.same(0, 2));
        assert!(!d.same(0, 3));
        assert_eq!(d.num_components(), 3);
        assert_eq!(d.size_of(1), 3);
        assert_eq!(d.size_of(4), 1);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
    }

    #[test]
    fn groups_are_deterministic() {
        let mut d = DisjointSet::new(6);
        d.union(5, 0);
        d.union(2, 3);
        let groups = d.groups();
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0, 5]);
        assert_eq!(groups[1], vec![1]);
        assert_eq!(groups[2], vec![2, 3]);
        assert_eq!(groups[3], vec![4]);
    }

    #[test]
    fn empty_structure() {
        let mut d = DisjointSet::new(0);
        assert!(d.is_empty());
        assert_eq!(d.num_components(), 0);
        assert!(d.groups().is_empty());
    }
}
