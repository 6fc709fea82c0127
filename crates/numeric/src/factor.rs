//! Sequential left-looking sparse Cholesky.

use crate::NumericError;
use spfactor_matrix::SymmetricCsc;
use spfactor_symbolic::SymbolicFactor;
use std::sync::Arc;

/// The numeric Cholesky factor `L` (`A = L Lᵀ`), stored congruently with
/// its [`SymbolicFactor`]: one value per factor entry, indexed by entry id
/// ([`SymbolicFactor::entry_id`]: the diagonal `L(j, j)` at `j`, the
/// strict-lower entries at `n +` their position in the column structure).
/// The column structure itself is a handle on the symbolic factor's
/// ([`SymbolicFactor::column_structure`]), not a copy: a factorization
/// allocates its values and nothing else.
#[derive(Clone, Debug, PartialEq)]
pub struct NumericFactor {
    n: usize,
    /// Column start offsets into the strict-lower entries (shared).
    colptr: Arc<[usize]>,
    /// Row indices of the strict-lower entries (shared).
    rowidx: Arc<[usize]>,
    /// Values by entry id: `n` diagonals, then the strict-lower values.
    values: Vec<f64>,
}

impl NumericFactor {
    /// The factor with `values` (entry-id layout) on `symbolic`'s
    /// structure — what every kernel in this crate returns.
    pub(crate) fn new(symbolic: &SymbolicFactor, values: Vec<f64>) -> Self {
        debug_assert_eq!(values.len(), symbolic.num_entries(), "one value per entry");
        let (colptr, rowidx) = symbolic.column_structure();
        NumericFactor {
            n: symbolic.n(),
            colptr,
            rowidx,
            values,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Diagonal entry `L(j, j)`.
    #[inline]
    pub fn diag(&self, j: usize) -> f64 {
        self.values[j]
    }

    /// Strict-lower row indices of column `j`.
    #[inline]
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Strict-lower values of column `j`, aligned with
    /// [`Self::col_rows`].
    #[inline]
    pub fn col_vals(&self, j: usize) -> &[f64] {
        &self.values[self.n + self.colptr[j]..self.n + self.colptr[j + 1]]
    }

    /// Number of stored nonzeros including the diagonal.
    pub fn nnz_lower(&self) -> usize {
        self.values.len()
    }

    /// Computes `L Lᵀ x` — multiplication by the reconstructed matrix,
    /// used for residual checks without forming `L Lᵀ` explicitly.
    pub fn mul_llt(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        // y = Lᵀ x
        let mut y = vec![0.0; self.n];
        for j in 0..self.n {
            let mut acc = self.diag(j) * x[j];
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                acc += v * x[i];
            }
            y[j] = acc;
        }
        // z = L y
        let mut z = vec![0.0; self.n];
        for j in 0..self.n {
            z[j] += self.diag(j) * y[j];
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                z[i] += v * y[j];
            }
        }
        z
    }

    /// Assembles a factor from raw storage arrays, for code that computes
    /// the values under its own discipline: `diag` holds the `n` diagonal
    /// values, `vals` the strict-lower values in the column-compressed
    /// layout described by `colptr`/`rowidx`. The arrays are copied into
    /// a factor of their own; the kernels of this crate share the
    /// symbolic factor's structure instead.
    ///
    /// # Panics
    ///
    /// If the arrays disagree in size: `diag.len() != n`,
    /// `colptr.len() != n + 1`, `colptr[n] != rowidx.len()` or
    /// `vals.len() != rowidx.len()`. The message names the array.
    pub fn from_parts(
        n: usize,
        diag: Vec<f64>,
        vals: Vec<f64>,
        colptr: Vec<usize>,
        rowidx: Vec<usize>,
    ) -> Self {
        assert_eq!(diag.len(), n, "diag has {} values for n = {n}", diag.len());
        assert_eq!(
            colptr.len(),
            n + 1,
            "colptr has {} entries for n = {n}",
            colptr.len()
        );
        assert_eq!(
            colptr[n],
            rowidx.len(),
            "colptr ends at {}, rowidx has {} entries",
            colptr[n],
            rowidx.len()
        );
        assert_eq!(
            vals.len(),
            rowidx.len(),
            "vals has {} values, rowidx has {} entries",
            vals.len(),
            rowidx.len()
        );
        let mut values = diag;
        values.extend_from_slice(&vals);
        NumericFactor {
            n,
            colptr: colptr.into(),
            rowidx: rowidx.into(),
            values,
        }
    }
}

/// Subtracts the contributions of `W` source columns that share the row
/// tail `tail` from column `j`'s accumulator and pivot: `p[w]` is the
/// position of `L(j, k_w)` in `vals`, the entries below it pair up with
/// `tail`. Each `acc[i]` is gathered once and receives its `W`
/// subtractions in the order of `p` (ascending `k`). Returns the pivot.
#[inline(always)]
fn apply_sources<const W: usize>(
    p: [usize; W],
    tail: &[usize],
    vals: &[f64],
    acc: &mut [f64],
    mut dj: f64,
) -> f64 {
    let l = p.map(|p| vals[p]);
    for ljk in l {
        dj -= ljk * ljk;
    }
    let below = p.map(|p| &vals[p + 1..p + 1 + tail.len()]);
    for (r, &i) in tail.iter().enumerate() {
        let mut x = acc[i];
        for w in 0..W {
            x -= l[w] * below[w][r];
        }
        acc[i] = x;
    }
    dj
}

/// Left-looking Cholesky: computes `L` such that `A = L Lᵀ`.
///
/// `a` must be symmetric positive definite with a structure contained in
/// the symbolic factor's (which holds whenever `symbolic` was computed
/// from `a`'s pattern).
///
/// Column `j` is updated by the columns of row `j` of L, read from the
/// factor's shared [`row structure`](SymbolicFactor::row_structure) in
/// ascending `k`. Consecutive sources from one fundamental supernode have
/// the same row indices below `j`, so they are applied four (two, one) at
/// a time to each gathered accumulator entry — every entry still receives
/// its subtractions one by one in ascending `k`, which keeps the result
/// bit-identical to the one-source-at-a-time kernel and to the parallel
/// executors pinned against it.
pub fn cholesky(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
) -> Result<NumericFactor, NumericError> {
    let n = a.n();
    if n != symbolic.n() {
        return Err(NumericError::StructureMismatch(format!(
            "matrix is {n}, symbolic factor is {}",
            symbolic.n()
        )));
    }
    let (colptr, rowidx) = (symbolic.colptr(), symbolic.rowidx());
    let rows = symbolic.row_structure();
    let mut values = vec![0.0f64; symbolic.num_entries()];
    let (diag, vals) = values.split_at_mut(n);
    // Dense accumulator.
    let mut acc = vec![0.0f64; n];

    for j in 0..n {
        let struct_j = &rowidx[colptr[j]..colptr[j + 1]];
        // Scatter A's column j; both row lists ascend, so membership in
        // the symbolic structure is one merge walk.
        let a_rows = a.col_rows(j);
        let a_vals = a.col_values(j);
        if a_rows.first() != Some(&j) {
            return Err(NumericError::StructureMismatch(format!(
                "column {j} of A does not start with its diagonal"
            )));
        }
        let mut dj = a_vals[0];
        let mut cursor = 0;
        for (&i, &v) in a_rows[1..].iter().zip(&a_vals[1..]) {
            while cursor < struct_j.len() && struct_j[cursor] < i {
                cursor += 1;
            }
            if struct_j.get(cursor) != Some(&i) {
                return Err(NumericError::StructureMismatch(format!(
                    "A({i}, {j}) not present in symbolic factor"
                )));
            }
            acc[i] = v;
        }
        // Left-looking update: for every k with L(j, k) != 0, subtract
        // L(j, k) * L(:, k) from the accumulator (rows > j) and from the
        // diagonal, one supernode run of sources at a time.
        let sources = rows.row(j);
        let mut t = 0;
        while t < sources.len() {
            let snode = rows.supernode_of(sources[t].0 as usize);
            let mut run_end = t + 1;
            while run_end < sources.len() && rows.supernode_of(sources[run_end].0 as usize) == snode
            {
                run_end += 1;
            }
            // Position of L(j, k) in `vals`; the entries of column k are
            // sorted, so those below row j start right after it.
            let at = |s: usize| colptr[sources[s].0 as usize] + sources[s].1 as usize;
            let tail = &rowidx[at(t) + 1..colptr[sources[t].0 as usize + 1]];
            while run_end - t >= 4 {
                let p = [at(t), at(t + 1), at(t + 2), at(t + 3)];
                dj = apply_sources(p, tail, vals, &mut acc, dj);
                t += 4;
            }
            if run_end - t >= 2 {
                dj = apply_sources([at(t), at(t + 1)], tail, vals, &mut acc, dj);
                t += 2;
            }
            if run_end - t == 1 {
                dj = apply_sources([at(t)], tail, vals, &mut acc, dj);
                t += 1;
            }
        }
        // NaN-safe: a plain `dj <= 0.0` would let a NaN pivot through.
        if dj.is_nan() || dj <= 0.0 {
            return Err(NumericError::NotPositiveDefinite(j));
        }
        let ljj = dj.sqrt();
        diag[j] = ljj;
        // Gather and scale.
        for (v, &i) in vals[colptr[j]..colptr[j + 1]].iter_mut().zip(struct_j) {
            *v = acc[i] / ljj;
            acc[i] = 0.0;
        }
    }

    Ok(NumericFactor::new(symbolic, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, Coo, SymmetricPattern};

    fn factor_setup(a: &SymmetricCsc) -> SymbolicFactor {
        SymbolicFactor::from_pattern(&a.pattern())
    }

    #[test]
    fn known_3x3_factorization() {
        // A = [[4, 2, 0], [2, 5, 2], [0, 2, 5]]
        // L = [[2, 0, 0], [1, 2, 0], [0, 1, 2]]
        let mut coo = Coo::new(3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(2, 1, 2.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        let a = coo.to_csc();
        let f = factor_setup(&a);
        let l = cholesky(&a, &f).unwrap();
        assert_eq!(l.diag(0), 2.0);
        assert_eq!(l.diag(1), 2.0);
        assert_eq!(l.diag(2), 2.0);
        assert_eq!(l.col_vals(0), &[1.0]);
        assert_eq!(l.col_vals(1), &[1.0]);
    }

    #[test]
    fn factorization_with_fill() {
        // An arrow matrix reversed (dense last row) has no fill; a cycle
        // has fill — use C4 whose factor fills (2,1).
        let p = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2)]);
        let a = gen::spd_from_pattern(&p, 3);
        let f = factor_setup(&a);
        assert_eq!(f.fill_in(), 1);
        let l = cholesky(&a, &f).unwrap();
        // Verify A = L Lᵀ by comparing matvec results.
        let x = [1.0, -2.0, 0.5, 3.0];
        let want = a.mul_vec(&x);
        let got = l.mul_llt(&x);
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-10, "{want:?} vs {got:?}");
        }
    }

    #[test]
    fn rejects_non_positive_definite() {
        let mut coo = Coo::new(2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 1.0).unwrap(); // 1 - 4 < 0
        let a = coo.to_csc();
        let f = factor_setup(&a);
        assert_eq!(cholesky(&a, &f), Err(NumericError::NotPositiveDefinite(1)));
    }

    #[test]
    fn rejects_nan_pivot_instead_of_propagating() {
        // A NaN diagonal must surface as NotPositiveDefinite, not as a
        // factor full of NaNs.
        let mut coo = Coo::new(2);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 1, f64::NAN).unwrap();
        let a = coo.to_csc();
        let f = factor_setup(&a);
        assert_eq!(cholesky(&a, &f), Err(NumericError::NotPositiveDefinite(1)));
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let p = SymmetricPattern::from_edges(3, [(1, 0)]);
        let a = gen::spd_from_pattern(&p, 0);
        let wrong = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(2, []));
        assert!(matches!(
            cholesky(&a, &wrong),
            Err(NumericError::StructureMismatch(_))
        ));
    }

    #[test]
    fn rejects_entry_outside_symbolic_structure() {
        // Path 0-1-2-3 has no fill; values on the 4-cycle add A(3, 0).
        let path = SymmetricPattern::from_edges(4, [(1, 0), (2, 1), (3, 2)]);
        let cycle = SymmetricPattern::from_edges(4, [(1, 0), (2, 1), (3, 2), (3, 0)]);
        let symbolic = SymbolicFactor::from_pattern(&path);
        let a = gen::spd_from_pattern(&cycle, 1);
        assert_eq!(
            cholesky(&a, &symbolic),
            Err(NumericError::StructureMismatch(
                "A(3, 0) not present in symbolic factor".into()
            ))
        );
        // Past the end of a column's structure as well as inside it.
        let a = gen::spd_from_pattern(&SymmetricPattern::from_edges(4, [(2, 0)]), 1);
        assert_eq!(
            cholesky(&a, &symbolic),
            Err(NumericError::StructureMismatch(
                "A(2, 0) not present in symbolic factor".into()
            ))
        );
    }

    #[test]
    fn failures_name_the_first_failing_column() {
        // Non-SPD and NaN diagonals deep in the matrix fail at their own
        // column, not earlier and not later.
        let p = gen::lap9(6, 6);
        let f = SymbolicFactor::from_pattern(&p);
        let good = gen::spd_from_pattern(&p, 4);
        for (col, bad) in [(0usize, -1.0), (13, 0.0), (20, f64::NAN), (35, -3.0)] {
            let mut coo = Coo::new(good.n());
            for j in 0..good.n() {
                for (&i, &v) in good.col_rows(j).iter().zip(good.col_values(j)) {
                    let v = if i == j && j == col { bad } else { v };
                    coo.push(i, j, v).unwrap();
                }
            }
            assert_eq!(
                cholesky(&coo.to_csc(), &f),
                Err(NumericError::NotPositiveDefinite(col)),
                "diagonal {col} = {bad}"
            );
        }
    }

    #[test]
    fn reconstruction_on_paper_style_matrices() {
        for (p, seed) in [
            (gen::lap9(6, 6), 1u64),
            (gen::grid5(5, 5), 2),
            (gen::power_network(40, 8, 3), 3),
            (gen::frame_shell(4, 8), 4),
        ] {
            let a = gen::spd_from_pattern(&p, seed);
            let f = factor_setup(&a);
            let l = cholesky(&a, &f).unwrap();
            let x: Vec<f64> = (0..a.n()).map(|i| (i as f64 * 0.7).sin() + 2.0).collect();
            let want = a.mul_vec(&x);
            let got = l.mul_llt(&x);
            let err: f64 = want
                .iter()
                .zip(&got)
                .map(|(w, g)| (w - g).abs())
                .fold(0.0, f64::max);
            let scale: f64 = want.iter().map(|w| w.abs()).fold(0.0, f64::max);
            assert!(err / scale < 1e-12, "relative error {}", err / scale);
        }
    }

    #[test]
    fn factor_nnz_matches_symbolic() {
        let p = gen::lap9(5, 5);
        let a = gen::spd_from_pattern(&p, 9);
        let f = factor_setup(&a);
        let l = cholesky(&a, &f).unwrap();
        assert_eq!(l.nnz_lower(), f.nnz_lower());
    }

    /// The storage arrays of a consistent two-column factor: `L(1, 0)`
    /// is its one strict entry.
    fn parts() -> (Vec<f64>, Vec<f64>, Vec<usize>, Vec<usize>) {
        (vec![2.0, 1.0], vec![0.5], vec![0, 1, 1], vec![1])
    }

    #[test]
    #[should_panic(expected = "diag has 1 values for n = 2")]
    fn from_parts_rejects_a_short_diag() {
        let (_, vals, colptr, rowidx) = parts();
        NumericFactor::from_parts(2, vec![2.0], vals, colptr, rowidx);
    }

    #[test]
    #[should_panic(expected = "colptr has 2 entries for n = 2")]
    fn from_parts_rejects_a_short_colptr() {
        let (diag, vals, _, rowidx) = parts();
        NumericFactor::from_parts(2, diag, vals, vec![0, 1], rowidx);
    }

    #[test]
    #[should_panic(expected = "colptr ends at 2, rowidx has 1 entries")]
    fn from_parts_rejects_a_colptr_past_rowidx() {
        let (diag, vals, _, rowidx) = parts();
        NumericFactor::from_parts(2, diag, vals, vec![0, 1, 2], rowidx);
    }

    #[test]
    #[should_panic(expected = "vals has 2 values, rowidx has 1 entries")]
    fn from_parts_rejects_vals_longer_than_rowidx() {
        let (diag, _, colptr, rowidx) = parts();
        NumericFactor::from_parts(2, diag, vec![0.5, 0.25], colptr, rowidx);
    }

    #[test]
    fn singleton_matrix() {
        let mut coo = Coo::new(1);
        coo.push(0, 0, 9.0).unwrap();
        let a = coo.to_csc();
        let f = factor_setup(&a);
        let l = cholesky(&a, &f).unwrap();
        assert_eq!(l.diag(0), 3.0);
    }
}
