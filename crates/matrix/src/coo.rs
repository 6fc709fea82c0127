//! Coordinate (triplet) staging format.
//!
//! [`Coo`] is the assembly/interchange format: entries can be pushed in any
//! order, duplicates are allowed (they are summed on conversion), and both
//! `(i, j)` and `(j, i)` are accepted for a symmetric matrix — entries are
//! canonicalized to the lower triangle.

use crate::csc::{SymmetricCsc, SymmetricPattern};
use crate::MatrixError;

/// A symmetric matrix under assembly, stored as canonicalized lower-triangle
/// coordinate triplets.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    n: usize,
    /// Entries `(row, col, value)` with `row >= col`.
    entries: Vec<(usize, usize, f64)>,
}

impl Coo {
    /// Creates an empty `n × n` symmetric matrix.
    pub fn new(n: usize) -> Self {
        Coo {
            n,
            entries: Vec::new(),
        }
    }

    /// Creates an empty matrix with room for `cap` triplets.
    pub fn with_capacity(n: usize, cap: usize) -> Self {
        Coo {
            n,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (lower-triangle) triplets, duplicates included.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Pushes an entry of the symmetric matrix. `(i, j)` and `(j, i)` are
    /// equivalent; the entry is stored at `(max, min)`.
    pub fn push(&mut self, i: usize, j: usize, v: f64) -> Result<(), MatrixError> {
        if i >= self.n {
            return Err(MatrixError::IndexOutOfBounds {
                index: i,
                dim: self.n,
            });
        }
        if j >= self.n {
            return Err(MatrixError::IndexOutOfBounds {
                index: j,
                dim: self.n,
            });
        }
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        self.entries.push((r, c, v));
        Ok(())
    }

    /// Iterates the canonicalized triplets `(row, col, value)`, `row >= col`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Converts to a strict-lower-triangle structural pattern, discarding
    /// values, diagonal entries, and duplicates.
    pub fn to_pattern(&self) -> SymmetricPattern {
        SymmetricPattern::from_edges(
            self.n,
            self.entries
                .iter()
                .filter(|&&(i, j, _)| i != j)
                .map(|&(i, j, _)| (i, j)),
        )
    }

    /// Converts to numeric CSC (lower triangle including diagonal), summing
    /// duplicate triplets. Structurally missing diagonal entries are created
    /// with value `0.0` so that every column has a diagonal slot.
    pub fn to_csc(&self) -> SymmetricCsc {
        let n = self.n;
        // Gather per-column buffers; duplicates are merged after sorting.
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut diag = vec![0.0f64; n];
        for &(i, j, v) in &self.entries {
            if i == j {
                diag[j] += v;
            } else {
                cols[j].push((i, v));
            }
        }
        let mut colptr = Vec::with_capacity(n + 1);
        let mut rowidx = Vec::new();
        let mut values = Vec::new();
        colptr.push(0);
        for (j, col) in cols.iter_mut().enumerate() {
            col.sort_unstable_by_key(|&(i, _)| i);
            // Diagonal first.
            rowidx.push(j);
            values.push(diag[j]);
            let mut k = 0;
            while k < col.len() {
                let i = col[k].0;
                let mut v = col[k].1;
                k += 1;
                while k < col.len() && col[k].0 == i {
                    v += col[k].1;
                    k += 1;
                }
                rowidx.push(i);
                values.push(v);
            }
            colptr.push(rowidx.len());
        }
        SymmetricCsc::from_parts(n, colptr, rowidx, values)
            .expect("Coo::to_csc builds a valid CSC by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_canonicalizes_to_lower() {
        let mut c = Coo::new(4);
        c.push(1, 3, 2.0).unwrap();
        let e: Vec<_> = c.iter().collect();
        assert_eq!(e, vec![(3, 1, 2.0)]);
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut c = Coo::new(3);
        assert!(c.push(3, 0, 1.0).is_err());
        assert!(c.push(0, 3, 1.0).is_err());
        assert!(c.push(2, 2, 1.0).is_ok());
    }

    #[test]
    fn to_pattern_drops_diagonal_and_duplicates() {
        let mut c = Coo::new(3);
        c.push(0, 0, 1.0).unwrap();
        c.push(2, 0, 1.0).unwrap();
        c.push(0, 2, 5.0).unwrap(); // duplicate of (2,0)
        c.push(2, 1, 1.0).unwrap();
        let p = c.to_pattern();
        assert_eq!(p.nnz_strict_lower(), 2);
        assert_eq!(p.col(0), &[2]);
        assert_eq!(p.col(1), &[2]);
        assert_eq!(p.col(2), &[] as &[usize]);
    }

    #[test]
    fn to_csc_sums_duplicates_and_inserts_diagonal() {
        let mut c = Coo::new(2);
        c.push(1, 0, 1.5).unwrap();
        c.push(0, 1, 2.5).unwrap(); // same position
        let m = c.to_csc();
        assert_eq!(m.n(), 2);
        // Diagonal slots exist with value 0.
        assert_eq!(m.diagonal(), vec![0.0, 0.0]);
        assert_eq!(m.col_rows(0), &[0, 1]);
        assert_eq!(m.col_values(0), &[0.0, 4.0]);
        assert_eq!(m.col_rows(1), &[1]);
    }

    #[test]
    fn empty_matrix_converts() {
        let c = Coo::new(0);
        assert!(c.is_empty());
        let p = c.to_pattern();
        assert_eq!(p.n(), 0);
        let m = c.to_csc();
        assert_eq!(m.n(), 0);
    }
}
