//! Sequential left-looking sparse Cholesky.

use crate::NumericError;
use spfactor_matrix::SymmetricCsc;
use spfactor_symbolic::{RowStructure, SymbolicFactor};
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
/// tail `tail` from one lane of the accumulator and from the pivot `dj`:
/// `p[w]` is the position of `L(j, k_w)` in `vals`, the entries below it
/// pair up with `tail`, and row `i` of the target lives at
/// `acc[i * S + LANE]` — `S = 1` for a column factored alone, `S = 2` for
/// one lane of a panel. Each accumulator entry is gathered once and
/// receives its `W` subtractions in the order of `p` (ascending `k`).
/// Returns the pivot.
#[inline(always)]
fn apply_sources<const W: usize, const S: usize, const LANE: usize>(
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
    let below = p.map(|p| &vals[p + 1..][..tail.len()]);
    for (r, &i) in tail.iter().enumerate() {
        let mut x = acc[i * S + LANE];
        for w in 0..W {
            x -= l[w] * below[w][r];
        }
        acc[i * S + LANE] = x;
    }
    dj
}

/// [`apply_sources`] for `W` sources that hold both rows of a panel
/// `(j, j + 1)`: `p[w]` is the position of `L(j, k_w)`, `L(j+1, k_w)`
/// follows it, and `tail` — the rows below `j`, `j + 1` first — pairs up
/// with the entries after `L(j, k_w)`. One load of `L(i, k_w)` updates
/// both lanes of `acc[i]`. Lane 1 of row `j + 1` is column `j + 1`'s
/// pivot, so the same loop subtracts `L(j+1, k)·L(j+1, k)` from it.
/// Returns column `j`'s pivot.
#[inline(always)]
fn apply_pair_sources<const W: usize>(
    p: [usize; W],
    tail: &[usize],
    vals: &[f64],
    acc: &mut [[f64; 2]],
    mut dj: f64,
) -> f64 {
    let l = p.map(|p| [vals[p], vals[p + 1]]);
    for [ljk, _] in l {
        dj -= ljk * ljk;
    }
    let below = p.map(|p| &vals[p + 1..][..tail.len()]);
    for (r, &i) in tail.iter().enumerate() {
        let mut x = acc[i];
        for w in 0..W {
            let v = below[w][r];
            x[0] -= l[w][0] * v;
            x[1] -= l[w][1] * v;
        }
        acc[i] = x;
    }
    dj
}

/// The factor's column structure and row lists, read by every column.
#[derive(Clone, Copy)]
struct Structure<'a> {
    colptr: &'a [usize],
    rowidx: &'a [usize],
    rows: &'a RowStructure,
}

impl<'a> Structure<'a> {
    /// Strict-lower rows of column `j`.
    #[inline]
    fn col(&self, j: usize) -> &'a [usize] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Supernode of the source at `t`; past the end of `sources`,
    /// `u32::MAX`, which sorts after every id (ids are below `n`, which
    /// fits `u32`).
    #[inline]
    fn snode_at(&self, sources: &[(u32, u32)], t: usize) -> u32 {
        sources
            .get(t)
            .map_or(u32::MAX, |&(k, _)| self.rows.supernode_of(k as usize))
    }

    /// The end of the run of `sources` from supernode `id` that starts at
    /// `t`, and the supernode of the source there ([`Self::snode_at`]):
    /// one lookup per source.
    #[inline]
    fn run_end(&self, sources: &[(u32, u32)], t: usize, id: u32) -> (usize, u32) {
        let mut end = t + 1;
        loop {
            let next = self.snode_at(sources, end);
            if next != id {
                return (end, next);
            }
            end += 1;
        }
    }

    /// Position of `L(j, k)` in the strict-lower values for a source
    /// `(k, pos)` of row `j`.
    #[inline]
    fn at(&self, (k, pos): (u32, u32)) -> usize {
        self.colptr[k as usize] + pos as usize
    }

    /// The rows of column `k` below row `j` for a source `(k, pos)` of
    /// row `j`: the tail every source of its run shares.
    #[inline]
    fn tail(&self, (k, pos): (u32, u32)) -> &'a [usize] {
        &self.rowidx[self.at((k, pos)) + 1..self.colptr[k as usize + 1]]
    }

    /// Applies one supernode run of sources to lane `LANE` of a panel's
    /// accumulator (`acc` flattened), four (two, one) per gather. Returns
    /// the pivot.
    #[inline(always)]
    fn apply_lane_run<const LANE: usize>(
        &self,
        run: &[(u32, u32)],
        vals: &[f64],
        acc: &mut [f64],
        mut dj: f64,
    ) -> f64 {
        let tail = self.tail(run[0]);
        let at = |s: usize| self.at(run[s]);
        let mut t = 0;
        while run.len() - t >= 4 {
            let p = [at(t), at(t + 1), at(t + 2), at(t + 3)];
            dj = apply_sources::<4, 2, LANE>(p, tail, vals, acc, dj);
            t += 4;
        }
        if run.len() - t >= 2 {
            dj = apply_sources::<2, 2, LANE>([at(t), at(t + 1)], tail, vals, acc, dj);
            t += 2;
        }
        if run.len() - t == 1 {
            dj = apply_sources::<1, 2, LANE>([at(t)], tail, vals, acc, dj);
        }
        dj
    }

    /// [`Self::apply_lane_run`] for a run that reaches both columns of a
    /// panel, taken from the first column's row list.
    #[inline(always)]
    fn apply_pair_run(
        &self,
        run: &[(u32, u32)],
        vals: &[f64],
        acc: &mut [[f64; 2]],
        mut dj: f64,
    ) -> f64 {
        let tail = self.tail(run[0]);
        let at = |s: usize| self.at(run[s]);
        let mut t = 0;
        while run.len() - t >= 4 {
            let p = [at(t), at(t + 1), at(t + 2), at(t + 3)];
            dj = apply_pair_sources(p, tail, vals, acc, dj);
            t += 4;
        }
        if run.len() - t >= 2 {
            dj = apply_pair_sources([at(t), at(t + 1)], tail, vals, acc, dj);
            t += 2;
        }
        if run.len() - t == 1 {
            dj = apply_pair_sources([at(t)], tail, vals, acc, dj);
        }
        dj
    }
}

/// Factors column `j` alone, `acc` a dense scalar accumulator. One
/// straight body, not the panel's helpers: on a matrix with little fill
/// most columns come here, and the helper-built form measured slower.
#[inline(always)]
fn factor_column(
    s: Structure<'_>,
    a: &SymmetricCsc,
    j: usize,
    diag: &mut [f64],
    vals: &mut [f64],
    acc: &mut [f64],
) -> Result<(), NumericError> {
    let Structure {
        colptr,
        rowidx,
        rows,
    } = s;
    let struct_j = &rowidx[colptr[j]..colptr[j + 1]];
    // Scatter A's column j; both row lists ascend, so membership in the
    // symbolic structure is one merge walk.
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
        while run_end < sources.len() && rows.supernode_of(sources[run_end].0 as usize) == snode {
            run_end += 1;
        }
        // Position of L(j, k) in `vals`; the entries of column k are
        // sorted, so those below row j start right after it.
        let at = |s: usize| colptr[sources[s].0 as usize] + sources[s].1 as usize;
        let tail = &rowidx[at(t) + 1..colptr[sources[t].0 as usize + 1]];
        while run_end - t >= 4 {
            let p = [at(t), at(t + 1), at(t + 2), at(t + 3)];
            dj = apply_sources::<4, 1, 0>(p, tail, vals, acc, dj);
            t += 4;
        }
        if run_end - t >= 2 {
            dj = apply_sources::<2, 1, 0>([at(t), at(t + 1)], tail, vals, acc, dj);
            t += 2;
        }
        if run_end - t == 1 {
            dj = apply_sources::<1, 1, 0>([at(t)], tail, vals, acc, dj);
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
    Ok(())
}

/// Scatters A's column `j` into lane `lane` of a panel's accumulator and
/// returns `A(j, j)`. Both row lists ascend, so membership in the
/// symbolic column `struct_j` is one merge walk.
fn scatter(
    a: &SymmetricCsc,
    j: usize,
    struct_j: &[usize],
    acc: &mut [[f64; 2]],
    lane: usize,
) -> Result<f64, NumericError> {
    let a_rows = a.col_rows(j);
    let a_vals = a.col_values(j);
    if a_rows.first() != Some(&j) {
        return Err(NumericError::StructureMismatch(format!(
            "column {j} of A does not start with its diagonal"
        )));
    }
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
        acc[i][lane] = v;
    }
    Ok(a_vals[0])
}

/// `L(j, j)` from the updated pivot `dj`, by [`factor_column`]'s test.
fn pivot(j: usize, dj: f64) -> Result<f64, NumericError> {
    if dj.is_nan() || dj <= 0.0 {
        return Err(NumericError::NotPositiveDefinite(j));
    }
    Ok(dj.sqrt())
}

/// Factors the panel `(j, j + 1)`, two consecutive columns of one
/// fundamental supernode: `struct(L_j) = {j + 1} ∪ struct(L_{j+1})`.
/// Lane 0 of `acc` accumulates column `j`, lane 1 column `j + 1`, whose
/// pivot sits at lane 1 of row `j + 1`.
#[inline(always)]
fn factor_pair(
    s: Structure<'_>,
    a: &SymmetricCsc,
    j: usize,
    diag: &mut [f64],
    vals: &mut [f64],
    acc: &mut [[f64; 2]],
) -> Result<(), NumericError> {
    let (struct_j, struct_next) = (s.col(j), s.col(j + 1));
    debug_assert_eq!(struct_j.first(), Some(&(j + 1)));
    let mut dj = scatter(a, j, struct_j, acc, 0)?;
    // Column j + 1's entries of A must be in place before any update
    // reaches them; a failure among them is reported only after column
    // j's pivot, where a column-by-column walk would have met it.
    let late = match scatter(a, j + 1, struct_next, acc, 1) {
        Ok(d) => {
            acc[j + 1][1] = d;
            None
        }
        Err(e) => Some(e),
    };
    // Row j + 1's last source is column j itself, applied once j is
    // final; the rest merge with row j's list by supernode, ascending.
    let first = s.rows.row(j);
    let second = s.rows.row(j + 1);
    debug_assert_eq!(second.last(), Some(&(j as u32, 0)));
    let second = &second[..second.len() - 1];
    let (mut t, mut x) = (0, s.snode_at(first, 0));
    let (mut u, mut y) = (0, s.snode_at(second, 0));
    while t < first.len() || u < second.len() {
        if x < y {
            let (end, next) = s.run_end(first, t, x);
            dj = s.apply_lane_run::<0>(&first[t..end], vals, acc.as_flattened_mut(), dj);
            (t, x) = (end, next);
        } else if y < x {
            let (end, next) = s.run_end(second, u, y);
            let d = acc[j + 1][1];
            acc[j + 1][1] = s.apply_lane_run::<1>(&second[u..end], vals, acc.as_flattened_mut(), d);
            (u, y) = (end, next);
        } else {
            // A supernode other than j's holds both rows in all of its
            // columns, and j's own holds both in every column before j:
            // the two runs are the same sources.
            let (end, next) = s.run_end(first, t, x);
            let len = end - t;
            debug_assert!(first[t..end]
                .iter()
                .zip(&second[u..u + len])
                .all(|(p, q)| p.0 == q.0 && p.1 + 1 == q.1));
            dj = s.apply_pair_run(&first[t..end], vals, acc, dj);
            (t, x) = (end, next);
            (u, y) = (u + len, s.snode_at(second, u + len));
        }
    }
    let ljj = pivot(j, dj)?;
    if let Some(e) = late {
        return Err(e);
    }
    diag[j] = ljj;
    // Gather and scale column j; its update to column j + 1 rides the
    // same pass, the last subtraction every entry of j + 1 receives.
    let (col_j, col_next) = vals[s.colptr[j]..s.colptr[j + 2]].split_at_mut(struct_j.len());
    let l = acc[j + 1][0] / ljj;
    col_j[0] = l;
    let mut d = acc[j + 1][1];
    d -= l * l;
    acc[j + 1] = [0.0, 0.0];
    for (v, &i) in col_j[1..].iter_mut().zip(&struct_j[1..]) {
        let [x, y] = acc[i];
        let x = x / ljj;
        *v = x;
        acc[i] = [0.0, y - l * x];
    }
    let ljj = pivot(j + 1, d)?;
    diag[j + 1] = ljj;
    for (v, &i) in col_next.iter_mut().zip(struct_next) {
        *v = acc[i][1] / ljj;
        acc[i][1] = 0.0;
    }
    Ok(())
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
/// a time to each gathered accumulator entry. The columns go in panels:
/// two consecutive columns of one fundamental supernode share their rows,
/// so a source holding both updates them together — one load of each
/// `L(i, k)` for the two lanes of `acc[i]` — and a column without a
/// partner is factored alone. Every entry still receives its subtractions
/// one by one in ascending `k`, which keeps the result bit-identical to
/// the one-source-at-a-time kernel and to the parallel executors pinned
/// against it; errors name the same column as that kernel.
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
    let s = Structure {
        colptr: symbolic.colptr(),
        rowidx: symbolic.rowidx(),
        rows: symbolic.row_structure(),
    };
    let mut values = vec![0.0f64; symbolic.num_entries()];
    let (diag, vals) = values.split_at_mut(n);
    // Two-lane accumulator, zero between panels; a column factored alone
    // uses its first n values as a plain dense one.
    let mut acc = vec![[0.0f64; 2]; n];
    let mut j = 0;
    while j < n {
        if j + 1 < n && s.rows.supernode_of(j) == s.rows.supernode_of(j + 1) {
            factor_pair(s, a, j, diag, vals, &mut acc)?;
            j += 2;
        } else {
            factor_column(s, a, j, diag, vals, &mut acc.as_flattened_mut()[..n])?;
            j += 1;
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
        // column, not earlier and not later — a column factored alone and
        // either column of a panel alike.
        let p = gen::lap9(6, 6);
        let f = SymbolicFactor::from_pattern(&p);
        let good = gen::spd_from_pattern(&p, 4);
        let cases = [
            (0usize, -1.0),
            (13, 0.0),
            (16, -2.0),
            (20, f64::NAN),
            (28, 0.0),
            (35, -3.0),
        ];
        // Panels pair a fundamental supernode's columns from its first.
        let rows = f.row_structure();
        let (mut firsts, mut seconds, mut j) = (Vec::new(), Vec::new(), 0);
        while j < f.n() {
            if j + 1 < f.n() && rows.supernode_of(j) == rows.supernode_of(j + 1) {
                firsts.push(j);
                seconds.push(j + 1);
                j += 2;
            } else {
                j += 1;
            }
        }
        let cols: Vec<usize> = cases.iter().map(|c| c.0).collect();
        assert!(cols.iter().any(|c| firsts.contains(c)));
        assert!(cols.iter().any(|c| seconds.contains(c)));
        assert!(cols
            .iter()
            .any(|c| !firsts.contains(c) && !seconds.contains(c)));
        for (col, bad) in cases {
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
