//! Row structure of L: the transpose of the factor's strict-lower
//! pattern.
//!
//! Column `j` of a left-looking factorization is updated by every column
//! `k < j` with `L(j, k) ≠ 0` — row `j` of L. The numeric kernels
//! (`spfactor-numeric`) walk the factor that way, so the transpose is
//! built here and nowhere else. A kernel runs many times per factor and
//! reads the copy the factor caches on first use
//! ([`SymbolicFactor::row_structure`](crate::SymbolicFactor::row_structure));
//! the analysis phases go source column by source column and never ask
//! for it, so a plan that is never factored numerically retains nothing.

use crate::supernode::fundamental_supernodes;
use crate::SymbolicFactor;

/// For every row `j` of L the pairs `(k, pos)` with `L(j, k)` stored,
/// `k < j` ascending, `pos` the index of `j` in `factor.col(k)` — plus the
/// fundamental-supernode id of every column.
///
/// Columns of one fundamental supernode that hold row `j` are consecutive
/// in row `j`'s list and have the same row indices below `j`
/// (`struct(L_{k+1}) = struct(L_k) \ {k+1}`): a run of equal
/// [`supernode_of`](Self::supernode_of) ids in a row is a set of update
/// sources that share one tail.
#[derive(Debug)]
pub struct RowStructure {
    row_start: Vec<usize>,
    entries: Vec<(u32, u32)>,
    snode: Vec<u32>,
}

impl RowStructure {
    /// Counting sort of the strict-lower entries by row: iterating columns
    /// ascending keeps each row list `k`-ascending. `O(nnz(L))`; the
    /// result holds 8 bytes per strict-lower entry.
    pub fn build(factor: &SymbolicFactor) -> Self {
        let n = factor.n();
        assert!(
            u32::try_from(n).is_ok(),
            "row structure indexes columns with u32"
        );
        let mut row_start = vec![0usize; n + 1];
        for &i in factor.rowidx() {
            row_start[i + 1] += 1;
        }
        for j in 0..n {
            row_start[j + 1] += row_start[j];
        }
        let mut entries = vec![(0u32, 0u32); row_start[n]];
        let mut cursor = row_start.clone();
        for k in 0..n {
            for (pos, &i) in factor.col(k).iter().enumerate() {
                entries[cursor[i]] = (k as u32, pos as u32);
                cursor[i] += 1;
            }
        }
        let mut snode = vec![0u32; n];
        for (id, sn) in fundamental_supernodes(factor).into_iter().enumerate() {
            snode[sn].fill(id as u32);
        }
        RowStructure {
            row_start,
            entries,
            snode,
        }
    }

    /// The `(k, pos)` pairs of row `j`, `k` ascending.
    #[inline]
    pub fn row(&self, j: usize) -> &[(u32, u32)] {
        &self.entries[self.row_start[j]..self.row_start[j + 1]]
    }

    /// Id of the fundamental supernode holding column `k` (ids ascend
    /// with the columns).
    #[inline]
    pub fn supernode_of(&self, k: usize) -> u32 {
        self.snode[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;

    #[test]
    fn rows_are_the_transpose_of_the_columns() {
        for p in [
            gen::lap9(7, 6),
            gen::power_network(60, 12, 3),
            gen::frame_shell(4, 6),
        ] {
            let f = SymbolicFactor::from_pattern(&p);
            let rows = f.row_structure();
            let mut total = 0;
            for j in 0..f.n() {
                let want: Vec<(u32, u32)> = (0..j)
                    .filter_map(|k| {
                        let pos = f.col(k).binary_search(&j).ok()?;
                        Some((k as u32, pos as u32))
                    })
                    .collect();
                assert_eq!(rows.row(j), want, "row {j}");
                total += want.len();
            }
            assert_eq!(total, f.nnz_strict_lower());
        }
    }

    #[test]
    fn supernode_runs_share_their_tails() {
        let f = SymbolicFactor::from_pattern(&gen::lap9(8, 8));
        let rows = f.row_structure();
        for j in 0..f.n() {
            for pair in rows.row(j).windows(2) {
                let ((k0, p0), (k1, p1)) = (pair[0], pair[1]);
                if rows.supernode_of(k0 as usize) == rows.supernode_of(k1 as usize) {
                    assert_eq!(k1, k0 + 1, "a run is consecutive columns");
                    assert_eq!(
                        f.col(k0 as usize)[p0 as usize + 1..],
                        f.col(k1 as usize)[p1 as usize + 1..]
                    );
                }
            }
        }
    }

    #[test]
    fn clones_share_one_row_structure() {
        let f = SymbolicFactor::from_pattern(&gen::lap9(5, 5));
        let before = f.clone();
        let built = f.row_structure() as *const RowStructure;
        assert_eq!(before.row_structure() as *const RowStructure, built);
        assert_eq!(f.clone().row_structure() as *const RowStructure, built);
    }
}
