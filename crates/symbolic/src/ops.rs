//! Element-level update operations (the paper's Figure 1).
//!
//! The basic dependency of Cholesky factorization: computing `L(i,j)`
//! requires the pair `L(i,k)`, `L(j,k)` from every column `k < j` in which
//! both rows are nonzero — `L(i,j) -= L(i,k) * L(j,k)` — followed by one
//! scaling by the diagonal `L(j,j)`. This module enumerates exactly those
//! operations from the symbolic factor, which is what the machine model
//! uses to account work and data traffic for *any* block-to-processor
//! assignment.

use crate::SymbolicFactor;

/// One outer-product update: target element `(i, j)` (with `i >= j > k`)
/// is updated by the source pair `(i, k)` and `(j, k)`. When `i == j` the
/// pair degenerates to the single source element `(j, k)` squared.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateOp {
    /// Target row.
    pub i: usize,
    /// Target column (`i >= j`).
    pub j: usize,
    /// Source column (`k < j`).
    pub k: usize,
}

/// Calls `f` for every update operation of the factorization, grouped by
/// source column `k` ascending; within a column, targets are produced in
/// ascending `(j, i)` order. Cost: one call per multiply-add pair,
/// `O(Σ_k c_k²)`.
pub fn for_each_update(factor: &SymbolicFactor, mut f: impl FnMut(UpdateOp)) {
    for k in 0..factor.n() {
        let rows = factor.col(k);
        for (b, &j) in rows.iter().enumerate() {
            for &i in &rows[b..] {
                f(UpdateOp { i, j, k });
            }
        }
    }
}

/// Calls `f(i, j)` for every scaling operation: each strict-lower factor
/// element `(i, j)` is scaled once by the diagonal element `(j, j)`.
pub fn for_each_scaling(factor: &SymbolicFactor, mut f: impl FnMut(usize, usize)) {
    for j in 0..factor.n() {
        for &i in factor.col(j) {
            f(i, j);
        }
    }
}

/// Total work under the paper's cost model (2 units per update pair, 1 per
/// diagonal scaling), by direct enumeration. Equals
/// [`SymbolicFactor::paper_work`], which computes it in closed form.
pub fn total_work(factor: &SymbolicFactor) -> usize {
    let mut w = 0usize;
    for_each_update(factor, |_| w += 2);
    for_each_scaling(factor, |_, _| w += 1);
    w
}

/// Work landing in each target column under the paper's cost model, in
/// closed form: the `b`-th stored row `j` of a column `k` with `c_k`
/// strict-lower entries is the target column of the `c_k − b` update
/// pairs `(i, j, k)`, `i ∈ rows(k)[b..]`, at 2 units each, and column `j`
/// scales its own `c_j` entries at 1 unit each. One pass over the stored
/// entries, `O(nnz(L))`; sums to [`SymbolicFactor::paper_work`].
pub fn column_work(factor: &SymbolicFactor) -> Vec<usize> {
    let mut w: Vec<usize> = (0..factor.n()).map(|j| factor.col_count(j)).collect();
    for k in 0..factor.n() {
        let rows = factor.col(k);
        for (b, &j) in rows.iter().enumerate() {
            w[j] += 2 * (rows.len() - b);
        }
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};

    #[test]
    fn column_work_matches_enumeration() {
        for p in [
            gen::lap9(7, 7),
            gen::grid5(5, 8),
            gen::power_network(50, 10, 4),
            SymmetricPattern::from_edges(2, []),
        ] {
            let f = SymbolicFactor::from_pattern(&p);
            let mut w = vec![0usize; f.n()];
            for_each_update(&f, |op| w[op.j] += 2);
            for_each_scaling(&f, |_i, j| w[j] += 1);
            assert_eq!(column_work(&f), w);
            assert_eq!(w.iter().sum::<usize>(), f.paper_work());
        }
    }

    #[test]
    fn updates_of_single_dense_column() {
        // A: column 0 dense with rows {1, 2}: updates targets (1,1), (2,1),
        // (2,2) from column 0; after elimination col1 = {2}: update (2,2)
        // from column 1.
        let p = SymmetricPattern::from_edges(3, [(1, 0), (2, 0)]);
        let f = SymbolicFactor::from_pattern(&p);
        let mut ops = Vec::new();
        for_each_update(&f, |op| ops.push((op.k, op.j, op.i)));
        assert_eq!(ops, vec![(0, 1, 1), (0, 1, 2), (0, 2, 2), (1, 2, 2)]);
    }

    #[test]
    fn update_invariants_hold() {
        let p = gen::lap9(6, 6);
        let f = SymbolicFactor::from_pattern(&p);
        for_each_update(&f, |op| {
            assert!(op.k < op.j, "source column must precede target");
            assert!(op.j <= op.i, "target must be in the lower triangle");
            // Sources and target are factor nonzeros.
            assert!(f.contains(op.j, op.k) || op.j == op.k);
            assert!(f.contains(op.i, op.k) || op.i == op.k);
            assert!(op.i == op.j || f.contains(op.i, op.j));
        });
    }

    #[test]
    fn total_work_matches_closed_form() {
        for p in [
            gen::lap9(7, 7),
            gen::grid5(5, 8),
            gen::power_network(50, 10, 4),
        ] {
            let f = SymbolicFactor::from_pattern(&p);
            assert_eq!(total_work(&f), f.paper_work());
        }
    }

    #[test]
    fn scaling_count_equals_strict_lower_nnz() {
        let p = gen::lap9(5, 5);
        let f = SymbolicFactor::from_pattern(&p);
        let mut count = 0;
        for_each_scaling(&f, |i, j| {
            assert!(i > j);
            count += 1;
        });
        assert_eq!(count, f.nnz_strict_lower());
    }

    #[test]
    fn empty_factor_has_no_ops() {
        let f = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(2, []));
        assert_eq!(total_work(&f), 0);
    }
}
