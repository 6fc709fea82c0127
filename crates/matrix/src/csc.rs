//! Compressed sparse column storage for symmetric matrices.
//!
//! Two types live here:
//!
//! * [`SymmetricPattern`] — structure only, strict lower triangle. This is
//!   what the ordering, symbolic factorization, and partitioning subsystems
//!   consume.
//! * [`SymmetricCsc`] — structure plus `f64` values, lower triangle
//!   *including* the diagonal (the diagonal entry is always the first entry
//!   of its column). This is what the numerical factorization consumes.

use crate::graph::Graph;
use crate::hash::Fnv1a;
use crate::perm::Permutation;
use crate::MatrixError;

/// Zero/nonzero structure of the strict lower triangle of a symmetric
/// matrix, in CSC form with sorted row indices per column.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SymmetricPattern {
    n: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
}

impl SymmetricPattern {
    /// Builds a pattern from undirected edges `(i, j)`, `i != j`. Edge
    /// direction and duplicates are irrelevant. Indices must be `< n`
    /// (checked with a panic — generators are trusted code; use [`crate::Coo`]
    /// for fallible assembly).
    pub fn from_edges<I: IntoIterator<Item = (usize, usize)>>(n: usize, edges: I) -> Self {
        // Count per column while canonicalizing, prefix-sum, scatter, then
        // sort and deduplicate each column where it lies.
        let edges = edges.into_iter();
        let mut lower: Vec<(usize, usize)> = Vec::with_capacity(edges.size_hint().0);
        let mut colptr = vec![0usize; n + 1];
        for (i, j) in edges {
            assert!(i < n && j < n, "edge ({i}, {j}) out of bounds for n = {n}");
            if i == j {
                continue;
            }
            let (r, c) = if i > j { (i, j) } else { (j, i) };
            colptr[c + 1] += 1;
            lower.push((r, c));
        }
        for c in 0..n {
            colptr[c + 1] += colptr[c];
        }
        let mut next = colptr.clone();
        let mut rowidx = vec![0usize; lower.len()];
        for (r, c) in lower {
            rowidx[next[c]] = r;
            next[c] += 1;
        }
        let mut write = 0;
        for c in 0..n {
            let (start, end) = (colptr[c], colptr[c + 1]);
            rowidx[start..end].sort_unstable();
            colptr[c] = write;
            for k in start..end {
                let r = rowidx[k];
                if write == colptr[c] || rowidx[write - 1] != r {
                    rowidx[write] = r;
                    write += 1;
                }
            }
        }
        colptr[n] = write;
        rowidx.truncate(write);
        SymmetricPattern { n, colptr, rowidx }
    }

    /// Builds directly from CSC arrays. Validates monotone `colptr`, sorted
    /// strictly-lower row indices, and no duplicates.
    pub fn from_parts(
        n: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
    ) -> Result<Self, MatrixError> {
        if colptr.len() != n + 1 || colptr[0] != 0 || *colptr.last().unwrap() != rowidx.len() {
            return Err(MatrixError::Unsupported(
                "malformed column pointer array".into(),
            ));
        }
        for j in 0..n {
            if colptr[j] > colptr[j + 1] {
                return Err(MatrixError::Unsupported(
                    "column pointers not monotone".into(),
                ));
            }
            let col = &rowidx[colptr[j]..colptr[j + 1]];
            for &i in col {
                if i >= n {
                    return Err(MatrixError::IndexOutOfBounds { index: i, dim: n });
                }
                if i <= j {
                    return Err(MatrixError::UpperTriangleEntry { row: i, col: j });
                }
            }
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::Unsupported(format!(
                        "column {j} row indices not strictly ascending"
                    )));
                }
            }
        }
        Ok(SymmetricPattern { n, colptr, rowidx })
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row indices of the strict lower triangle of column `j`, ascending.
    #[inline]
    pub fn col(&self, j: usize) -> &[usize] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Number of stored (strict lower triangle) nonzeros.
    #[inline]
    pub fn nnz_strict_lower(&self) -> usize {
        self.rowidx.len()
    }

    /// Nonzeros of the lower triangle including the (implicit) diagonal.
    #[inline]
    pub fn nnz_lower(&self) -> usize {
        self.rowidx.len() + self.n
    }

    /// Nonzeros of the full symmetric matrix including the diagonal.
    #[inline]
    pub fn nnz_full(&self) -> usize {
        2 * self.rowidx.len() + self.n
    }

    /// `true` if `(i, j)` (with `i > j`) is structurally nonzero.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.col(j).binary_search(&i).is_ok()
    }

    /// Iterates all strict-lower entries as `(row, col)`.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |j| self.col(j).iter().map(move |&i| (i, j)))
    }

    /// The adjacency graph of the full symmetric matrix (no self loops).
    pub fn to_graph(&self) -> Graph {
        Graph::from_lower_csc(self.n, &self.colptr, &self.rowidx)
    }

    /// A stable 64-bit hash of the structure (dimension, column pointers,
    /// row indices) — the cache key of the pattern-only front end.
    ///
    /// FNV-1a ([`Fnv1a`]) over the CSC arrays: deterministic across runs, processes,
    /// and platforms, and independent of how the pattern was assembled
    /// (two structurally equal patterns always hash alike because the
    /// representation is canonical — sorted, deduplicated columns).
    pub fn structural_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.n as u64);
        for &p in &self.colptr {
            h.write_u64(p as u64);
        }
        for &i in &self.rowidx {
            h.write_u64(i as u64);
        }
        h.finish()
    }

    /// Symmetric permutation: entry `(i, j)` of the result is nonzero iff
    /// entry `(old(i), old(j))` of `self` is. `perm[new] = old`.
    pub fn permute(&self, perm: &Permutation) -> SymmetricPattern {
        assert_eq!(perm.len(), self.n, "permutation size mismatch");
        SymmetricPattern::from_edges(
            self.n,
            self.iter_entries()
                .map(|(i, j)| (perm.new_of(i), perm.new_of(j))),
        )
    }
}

/// Numeric symmetric matrix: lower triangle including the diagonal, CSC,
/// diagonal entry first in each column, off-diagonal rows ascending.
#[derive(Clone, Debug, PartialEq)]
pub struct SymmetricCsc {
    n: usize,
    colptr: Vec<usize>,
    rowidx: Vec<usize>,
    values: Vec<f64>,
}

impl SymmetricCsc {
    /// Builds from raw CSC arrays, validating the invariants stated on the
    /// type: each column non-empty with its diagonal first, off-diagonal
    /// row indices strictly ascending and in bounds.
    pub fn from_parts(
        n: usize,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, MatrixError> {
        if colptr.len() != n + 1
            || colptr[0] != 0
            || *colptr.last().unwrap() != rowidx.len()
            || rowidx.len() != values.len()
        {
            return Err(MatrixError::Unsupported("malformed CSC arrays".into()));
        }
        for j in 0..n {
            let col = &rowidx[colptr[j]..colptr[j + 1]];
            if col.is_empty() || col[0] != j {
                return Err(MatrixError::Unsupported(format!(
                    "column {j} must start with its diagonal entry"
                )));
            }
            for w in col.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::Unsupported(format!(
                        "column {j} row indices not strictly ascending"
                    )));
                }
            }
            if let Some(&last) = col.last() {
                if last >= n {
                    return Err(MatrixError::IndexOutOfBounds {
                        index: last,
                        dim: n,
                    });
                }
            }
        }
        Ok(SymmetricCsc {
            n,
            colptr,
            rowidx,
            values,
        })
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Row indices of column `j` (diagonal first).
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`, aligned with [`Self::col_rows`].
    #[inline]
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Stored nonzeros (lower triangle including diagonal).
    #[inline]
    pub fn nnz_lower(&self) -> usize {
        self.rowidx.len()
    }

    /// The diagonal as a dense vector.
    pub fn diagonal(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.values[self.colptr[j]]).collect()
    }

    /// Structure of the strict lower triangle (diagonal dropped).
    pub fn pattern(&self) -> SymmetricPattern {
        SymmetricPattern::from_edges(
            self.n,
            (0..self.n).flat_map(|j| self.col_rows(j)[1..].iter().map(move |&i| (i, j))),
        )
    }

    /// Whether the strict lower triangle has exactly the structure
    /// `pattern` — `self.pattern() == *pattern` without building anything.
    pub fn has_pattern(&self, pattern: &SymmetricPattern) -> bool {
        self.n == pattern.n()
            && self.nnz_lower() == pattern.nnz_lower()
            && (0..self.n).all(|j| self.col_rows(j)[1..] == *pattern.col(j))
    }

    /// Full symmetric matrix-vector product `y = A x`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        let mut y = vec![0.0; self.n];
        for j in 0..self.n {
            let rows = self.col_rows(j);
            let vals = self.col_values(j);
            // Diagonal
            y[j] += vals[0] * x[j];
            // Off-diagonals contribute to both (i,j) and (j,i).
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                y[i] += v * x[j];
                y[j] += v * x[i];
            }
        }
        y
    }

    /// Symmetric permutation `P A Pᵀ` (`perm[new] = old`), preserving values.
    pub fn permute(&self, perm: &Permutation) -> SymmetricCsc {
        assert_eq!(perm.len(), self.n);
        let n = self.n;
        // Count per new column, prefix-sum, scatter (diagonal into each
        // column's first slot), then sort each column's off-diagonals
        // where they lie.
        let mut colptr = vec![0usize; n + 1];
        for j in 0..n {
            let nj = perm.new_of(j);
            colptr[nj + 1] += 1;
            for &i in &self.col_rows(j)[1..] {
                colptr[nj.min(perm.new_of(i)) + 1] += 1;
            }
        }
        for c in 0..n {
            colptr[c + 1] += colptr[c];
        }
        let mut next: Vec<usize> = colptr[..n].iter().map(|&p| p + 1).collect();
        let mut entries = vec![(0usize, 0.0f64); self.nnz_lower()];
        for j in 0..n {
            let nj = perm.new_of(j);
            let (rows, values) = (self.col_rows(j), self.col_values(j));
            entries[colptr[nj]] = (nj, values[0]);
            for (&i, &v) in rows[1..].iter().zip(&values[1..]) {
                let ni = perm.new_of(i);
                let (r, c) = if ni > nj { (ni, nj) } else { (nj, ni) };
                entries[next[c]] = (r, v);
                next[c] += 1;
            }
        }
        for c in 0..n {
            entries[colptr[c] + 1..colptr[c + 1]].sort_unstable_by_key(|&(r, _)| r);
        }
        let (rowidx, values) = entries.into_iter().unzip();
        SymmetricCsc {
            n,
            colptr,
            rowidx,
            values,
        }
    }

    /// Makes the matrix strictly diagonally dominant (hence SPD) in place:
    /// sets each diagonal to `1 + Σ_i |a_ij|` summed over the full row/column.
    pub fn make_diagonally_dominant(&mut self) {
        let mut rowsum = vec![0.0f64; self.n];
        // Indexing by j is clearer here: each entry feeds two rows.
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.n {
            let rows = self.col_rows(j);
            let vals = self.col_values(j);
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                rowsum[i] += v.abs();
                rowsum[j] += v.abs();
            }
        }
        for (j, &sum) in rowsum.iter().enumerate() {
            let p = self.colptr[j];
            self.values[p] = 1.0 + sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_pattern() -> SymmetricPattern {
        // 4x4: edges (1,0), (2,0), (3,1), (3,2)
        SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2)])
    }

    #[test]
    fn from_edges_sorts_and_dedups() {
        let p = SymmetricPattern::from_edges(3, [(2, 0), (0, 2), (1, 0), (2, 1), (2, 1)]);
        assert_eq!(p.col(0), &[1, 2]);
        assert_eq!(p.col(1), &[2]);
        assert_eq!(p.nnz_strict_lower(), 3);
        assert_eq!(p.nnz_lower(), 6);
        assert_eq!(p.nnz_full(), 9);
    }

    #[test]
    fn self_loops_are_dropped() {
        let p = SymmetricPattern::from_edges(2, [(0, 0), (1, 1), (1, 0)]);
        assert_eq!(p.nnz_strict_lower(), 1);
    }

    #[test]
    fn contains_checks_membership() {
        let p = tri_pattern();
        assert!(p.contains(1, 0));
        assert!(p.contains(3, 2));
        assert!(!p.contains(2, 1));
    }

    #[test]
    fn structural_hash_is_stable_and_discriminating() {
        let p = tri_pattern();
        // Equal structures hash alike, however they were assembled
        // (duplicate edges, reversed direction).
        let q = SymmetricPattern::from_edges(4, [(0, 2), (2, 3), (1, 3), (0, 1), (1, 0)]);
        assert_eq!(p, q);
        assert_eq!(p.structural_hash(), q.structural_hash());
        // Different structures (one extra edge / different n) hash apart.
        let extra = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2), (2, 1)]);
        assert_ne!(p.structural_hash(), extra.structural_hash());
        let wider = SymmetricPattern::from_edges(5, [(1, 0), (2, 0), (3, 1), (3, 2)]);
        assert_ne!(p.structural_hash(), wider.structural_hash());
        // Pinned value: the hash is part of the serve cache-key contract
        // and must stay stable across releases.
        assert_eq!(
            SymmetricPattern::from_edges(2, [(1, 0)]).structural_hash(),
            SymmetricPattern::from_edges(2, [(1, 0)]).structural_hash(),
        );
    }

    #[test]
    fn iter_entries_visits_all() {
        let p = tri_pattern();
        let e: Vec<_> = p.iter_entries().collect();
        assert_eq!(e, vec![(1, 0), (2, 0), (3, 1), (3, 2)]);
    }

    #[test]
    fn permute_identity_is_noop() {
        let p = tri_pattern();
        assert_eq!(p.permute(&Permutation::identity(4)), p);
    }

    #[test]
    fn permute_relabels_entries() {
        let p = SymmetricPattern::from_edges(3, [(1, 0)]);
        // perm[new] = old: reverse the labels (0<->2).
        let perm = Permutation::from_vec(vec![2, 1, 0]).unwrap();
        let q = p.permute(&perm);
        // old edge (1,0): new labels: old 1 -> new 1, old 0 -> new 2 => edge (2,1)
        assert!(q.contains(2, 1));
        assert_eq!(q.nnz_strict_lower(), 1);
    }

    #[test]
    fn permute_preserves_nnz() {
        let p = tri_pattern();
        let perm = Permutation::from_vec(vec![3, 0, 2, 1]).unwrap();
        assert_eq!(p.permute(&perm).nnz_strict_lower(), p.nnz_strict_lower());
    }

    #[test]
    fn from_parts_validates() {
        // valid
        assert!(SymmetricPattern::from_parts(3, vec![0, 1, 2, 2], vec![1, 2]).is_ok());
        // upper triangle entry
        assert!(SymmetricPattern::from_parts(3, vec![0, 1, 1, 1], vec![0]).is_err());
        // bad colptr
        assert!(SymmetricPattern::from_parts(3, vec![0, 1], vec![1]).is_err());
        // unsorted
        assert!(SymmetricPattern::from_parts(3, vec![0, 2, 2, 2], vec![2, 1]).is_err());
    }

    #[test]
    fn csc_mul_vec_matches_dense() {
        // A = [2 1 0; 1 3 1; 0 1 4] lower: cols: (0: d=2, r1=1), (1: d=3, r2=1), (2: d=4)
        let m = SymmetricCsc::from_parts(
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 1, 2, 2],
            vec![2.0, 1.0, 3.0, 1.0, 4.0],
        )
        .unwrap();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![2.0 + 2.0, 1.0 + 6.0 + 3.0, 2.0 + 12.0]);
    }

    #[test]
    fn csc_requires_diagonal_first() {
        assert!(SymmetricCsc::from_parts(2, vec![0, 1, 2], vec![1, 1], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn csc_pattern_round_trip() {
        let m = SymmetricCsc::from_parts(
            3,
            vec![0, 2, 4, 5],
            vec![0, 2, 1, 2, 2],
            vec![1.0, 0.5, 1.0, 0.25, 1.0],
        )
        .unwrap();
        let p = m.pattern();
        assert!(m.has_pattern(&p));
        assert!(!m.has_pattern(&SymmetricPattern::from_edges(3, [(2, 0)])));
        assert!(!m.has_pattern(&SymmetricPattern::from_edges(3, [(2, 0), (1, 0)])));
        assert!(!m.has_pattern(&SymmetricPattern::from_edges(4, [(2, 0), (2, 1)])));
        assert!(p.contains(2, 0));
        assert!(p.contains(2, 1));
        assert_eq!(p.nnz_strict_lower(), 2);
    }

    #[test]
    fn diagonal_dominance_makes_rows_dominant() {
        let mut m = SymmetricCsc::from_parts(
            3,
            vec![0, 3, 4, 5],
            vec![0, 1, 2, 1, 2],
            vec![0.0, -2.0, 5.0, 0.0, 0.0],
        )
        .unwrap();
        m.make_diagonally_dominant();
        let d = m.diagonal();
        assert_eq!(d[0], 1.0 + 7.0);
        assert_eq!(d[1], 1.0 + 2.0);
        assert_eq!(d[2], 1.0 + 5.0);
    }

    #[test]
    fn csc_permute_preserves_mul() {
        let m = SymmetricCsc::from_parts(
            3,
            vec![0, 2, 4, 5],
            vec![0, 1, 1, 2, 2],
            vec![2.0, 1.0, 3.0, 1.0, 4.0],
        )
        .unwrap();
        let perm = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let pm = m.permute(&perm);
        let x = [1.0, -1.0, 2.0];
        // (PAPᵀ)(Px) = P(Ax)
        let px = perm.apply(&x);
        let lhs = pm.mul_vec(&px);
        let rhs = perm.apply(&m.mul_vec(&x));
        for (a, b) in lhs.iter().zip(&rhs) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
