//! Elimination trees and postorderings.
//!
//! The elimination tree of a symmetric matrix A (with respect to an
//! ordering) is the fundamental structure of sparse Cholesky: the parent of
//! column `j` is the row index of the first sub-diagonal nonzero of column
//! `j` of the factor L. It is computed here directly from the structure of
//! A with Liu's path-compression algorithm — no factor needed.

use spfactor_matrix::SymmetricPattern;

/// Sentinel for "no parent" (tree roots).
pub const NONE: usize = usize::MAX;

/// An elimination tree: `parent[j]` is the parent column of `j`, or
/// [`NONE`] for roots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EliminationTree {
    parent: Vec<usize>,
}

/// Children lists of an [`EliminationTree`] in one flat CSR layout:
/// node `j`'s children are `idx[ptr[j]..ptr[j + 1]]`, ascending. Two
/// allocations total, versus one `Vec` per node for the nested layout —
/// the difference between tens of milliseconds and near-free on a
/// million-column tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Children {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl Children {
    /// Children of node `j`, ascending.
    #[inline]
    pub fn of(&self, j: usize) -> &[usize] {
        &self.idx[self.ptr[j]..self.ptr[j + 1]]
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.ptr.len() - 1
    }
}

/// The strict-lower pattern regrouped by *row* into one flat CSR buffer:
/// `(row_ptr, row_idx)` with row `i`'s columns at
/// `row_idx[row_ptr[i]..row_ptr[i + 1]]`, ascending.
pub fn rows_of(pattern: &SymmetricPattern) -> (Vec<usize>, Vec<usize>) {
    let n = pattern.n();
    let mut row_ptr = vec![0usize; n + 1];
    for (i, _) in pattern.iter_entries() {
        row_ptr[i + 1] += 1;
    }
    for i in 0..n {
        row_ptr[i + 1] += row_ptr[i];
    }
    let mut row_idx = vec![0usize; row_ptr[n]];
    let mut cursor = row_ptr.clone();
    for (i, j) in pattern.iter_entries() {
        // Ascending j per row because iter_entries walks columns in order.
        row_idx[cursor[i]] = j;
        cursor[i] += 1;
    }
    (row_ptr, row_idx)
}

impl EliminationTree {
    /// Computes the elimination tree of `pattern` (in its current
    /// ordering) via Liu's algorithm with path compression; `O(nnz · α)`.
    pub fn from_pattern(pattern: &SymmetricPattern) -> Self {
        let n = pattern.n();
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        // For row i ascending, climb with path compression from every k < i
        // with A(i, k) != 0. The stored lower triangle gives entries (i, j)
        // with i > j per column j; regroup them by row first, into one flat
        // CSR buffer (a million-column tree would pay dearly for n Vecs).
        let (row_ptr, row_idx) = rows_of(pattern);
        for i in 0..n {
            for &k in &row_idx[row_ptr[i]..row_ptr[i + 1]] {
                let mut r = k;
                loop {
                    if ancestor[r] == NONE || ancestor[r] == i {
                        break;
                    }
                    let next = ancestor[r];
                    ancestor[r] = i;
                    r = next;
                }
                if ancestor[r] == NONE {
                    ancestor[r] = i;
                    parent[r] = i;
                }
            }
        }
        EliminationTree { parent }
    }

    /// Capacity of the parent array, in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.parent.capacity() * std::mem::size_of::<usize>()
    }

    /// Number of columns.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Parent of column `j` ([`NONE`] for roots).
    #[inline]
    pub fn parent(&self, j: usize) -> usize {
        self.parent[j]
    }

    /// The raw parent array.
    pub fn parents(&self) -> &[usize] {
        &self.parent
    }

    /// Roots of the forest (one per connected component).
    pub fn roots(&self) -> Vec<usize> {
        (0..self.n()).filter(|&j| self.parent[j] == NONE).collect()
    }

    /// Children of every node in one flat CSR structure (two arrays
    /// total, regardless of `n`); each node's child list is ascending.
    pub fn children(&self) -> Children {
        let n = self.n();
        let mut ptr = vec![0usize; n + 1];
        for j in 0..n {
            if self.parent[j] != NONE {
                ptr[self.parent[j] + 1] += 1;
            }
        }
        for v in 0..n {
            ptr[v + 1] += ptr[v];
        }
        let mut idx = vec![0usize; ptr[n]];
        let mut cursor = ptr.clone();
        // Ascending j keeps each child list ascending.
        for j in 0..n {
            if self.parent[j] != NONE {
                let p = self.parent[j];
                idx[cursor[p]] = j;
                cursor[p] += 1;
            }
        }
        Children { ptr, idx }
    }

    /// A postordering of the forest: `post[k]` is the k-th column visited.
    /// Children are visited in ascending order, so the postorder is
    /// deterministic. Allocates only the CSR children structure, the
    /// result, and one DFS stack.
    pub fn postorder(&self) -> Vec<usize> {
        let n = self.n();
        let children = self.children();
        let mut post = Vec::with_capacity(n);
        // Iterative DFS; (node, absolute cursor into the child CSR).
        let mut stack: Vec<(usize, usize)> = Vec::new();
        for root in self.roots() {
            stack.push((root, children.ptr[root]));
            while let Some(&mut (v, ref mut cursor)) = stack.last_mut() {
                if *cursor < children.ptr[v + 1] {
                    let c = children.idx[*cursor];
                    *cursor += 1;
                    stack.push((c, children.ptr[c]));
                } else {
                    post.push(v);
                    stack.pop();
                }
            }
        }
        post
    }

    /// Depth of each node (roots have depth 0).
    pub fn depths(&self) -> Vec<usize> {
        let n = self.n();
        let mut depth = vec![usize::MAX; n];
        for j in 0..n {
            // Climb until a known depth or a root, then unwind.
            let mut path = Vec::new();
            let mut v = j;
            while depth[v] == usize::MAX {
                path.push(v);
                if self.parent[v] == NONE {
                    depth[v] = 0;
                    break;
                }
                v = self.parent[v];
            }
            let mut d = depth[v];
            for &u in path.iter().rev() {
                if depth[u] == usize::MAX {
                    d += 1;
                    depth[u] = d;
                } else {
                    d = depth[u];
                }
            }
        }
        depth
    }

    /// Height of the forest: `1 + max depth`, or 0 when empty. A proxy for
    /// the critical-path length of the column-level task graph.
    pub fn height(&self) -> usize {
        if self.n() == 0 {
            0
        } else {
            1 + self.depths().into_iter().max().unwrap()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;

    /// Tridiagonal matrix: the etree is a path 0 -> 1 -> ... -> n-1.
    #[test]
    fn etree_of_tridiagonal_is_path() {
        let p = SymmetricPattern::from_edges(5, (1..5).map(|i| (i, i - 1)));
        let t = EliminationTree::from_pattern(&p);
        assert_eq!(t.parents(), &[1, 2, 3, 4, NONE]);
        assert_eq!(t.roots(), vec![4]);
        assert_eq!(t.height(), 5);
    }

    /// An arrow matrix pointing at the last column: every column's first
    /// sub-diagonal nonzero is row n-1, so all parents are n-1.
    #[test]
    fn etree_of_arrow_is_star() {
        let p = SymmetricPattern::from_edges(5, (0..4).map(|j| (4, j)));
        let t = EliminationTree::from_pattern(&p);
        assert_eq!(t.parents(), &[4, 4, 4, 4, NONE]);
        assert_eq!(t.height(), 2);
    }

    /// Known example (George & Liu style): a 2x2 grid.
    /// Edges: (1,0), (2,0), (3,1), (3,2). L fill: none under natural order
    /// except (3, ...): parent(0)=1 (first nnz below diag in col 0 is row 1),
    /// col1 gets fill at row 2 (from (2,0),(1,0)) => parent(1)=2... verify
    /// against hand computation: etree parents = [1, 2, 3, NONE].
    #[test]
    fn etree_of_square_cycle() {
        let p = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2)]);
        let t = EliminationTree::from_pattern(&p);
        assert_eq!(t.parents(), &[1, 2, 3, NONE]);
    }

    #[test]
    fn etree_of_disconnected_has_multiple_roots() {
        let p = SymmetricPattern::from_edges(4, [(1, 0), (3, 2)]);
        let t = EliminationTree::from_pattern(&p);
        assert_eq!(t.roots(), vec![1, 3]);
    }

    #[test]
    fn postorder_visits_children_before_parents() {
        let p = gen::lap9(5, 5);
        let t = EliminationTree::from_pattern(&p);
        let post = t.postorder();
        assert_eq!(post.len(), 25);
        let mut pos = [0usize; 25];
        for (k, &v) in post.iter().enumerate() {
            pos[v] = k;
        }
        for j in 0..25 {
            if t.parent(j) != NONE {
                assert!(pos[j] < pos[t.parent(j)], "child {j} after parent");
            }
        }
    }

    #[test]
    fn postorder_is_permutation() {
        let p = gen::grid5(4, 4);
        let t = EliminationTree::from_pattern(&p);
        let mut post = t.postorder();
        post.sort_unstable();
        assert_eq!(post, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn depths_consistent_with_parents() {
        let p = gen::lap9(4, 4);
        let t = EliminationTree::from_pattern(&p);
        let d = t.depths();
        for j in 0..16 {
            match t.parent(j) {
                NONE => assert_eq!(d[j], 0),
                par => assert_eq!(d[j], d[par] + 1),
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let t = EliminationTree::from_pattern(&SymmetricPattern::from_edges(0, []));
        assert_eq!(t.height(), 0);
        assert!(t.postorder().is_empty());
        let t = EliminationTree::from_pattern(&SymmetricPattern::from_edges(1, []));
        assert_eq!(t.parents(), &[NONE]);
        assert_eq!(t.height(), 1);
    }
}
