//! Sequential left-looking sparse Cholesky, in panels of the factor's
//! fundamental supernodes: four columns at a time, a supernode's last two
//! or three two at a time, and a column without a partner alone. The body
//! is compiled twice, for the baseline target and for AVX2, and
//! [`cholesky`] runs the instance the CPU supports; both give the same
//! bits.

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
    rowidx: Arc<[u32]>,
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
    pub fn col_rows(&self, j: usize) -> &[u32] {
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
                acc += v * x[i as usize];
            }
            y[j] = acc;
        }
        // z = L y
        let mut z = vec![0.0; self.n];
        for j in 0..self.n {
            z[j] += self.diag(j) * y[j];
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_vals(j)) {
                z[i as usize] += v * y[j];
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
        rowidx: Vec<u32>,
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
/// tail `tail` from `L` adjacent lanes, columns `j, j + 1, …` of one
/// supernode: `p[w]` is the position of `L(j, k_w)` in `vals`, so
/// `L(j + m, k_w)` is at `p[w] + m`, and lane `m` of row `i` is
/// `acc[i * S + lane + m]`. The tail starts at row `j + B`: with `B = 0`
/// lane `m` of row `j + m` is column `j + m`'s pivot (above it, scratch);
/// with `B = 1` column `j`'s pivot is `dj`, which is returned. Each
/// accumulator row is gathered once and receives its `W` subtractions in
/// the order of `p` (ascending `k`).
#[inline(always)]
fn apply_sources<const W: usize, const L: usize, const S: usize, const B: usize>(
    p: [usize; W],
    tail: &[u32],
    vals: &[f64],
    acc: &mut [f64],
    lane: usize,
    mut dj: f64,
) -> f64 {
    let l: [[f64; L]; W] = p.map(|p| std::array::from_fn(|m| vals[p + m]));
    if B == 1 {
        for l in &l {
            dj -= l[0] * l[0];
        }
    }
    let below: [&[f64]; W] = std::array::from_fn(|w| &vals[p[w] + B..][..tail.len()]);
    for (r, &i) in tail.iter().enumerate() {
        let row = &mut acc[i as usize * S + lane..][..L];
        let mut x: [f64; L] = std::array::from_fn(|m| row[m]);
        for w in 0..W {
            let v = below[w][r];
            for m in 0..L {
                x[m] -= l[w][m] * v;
            }
        }
        row.copy_from_slice(&x);
    }
    dj
}

/// The factor's column structure and row lists, read by every column.
#[derive(Clone, Copy)]
struct Structure<'a> {
    colptr: &'a [usize],
    rowidx: &'a [u32],
    rows: &'a RowStructure,
}

impl<'a> Structure<'a> {
    /// Strict-lower rows of column `j`.
    #[inline]
    fn col(&self, j: usize) -> &'a [u32] {
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

    /// The rows of column `k` from row `j` on for a source `(k, pos)` of
    /// row `j`: the tail every source of its run shares.
    #[inline]
    fn tail(&self, (k, pos): (u32, u32)) -> &'a [u32] {
        &self.rowidx[self.at((k, pos))..self.colptr[k as usize + 1]]
    }

    /// Applies one supernode run of sources, from the row list of lane
    /// `lane`, to lanes `lane..lane + L` of a panel's accumulator, `S`
    /// lanes a row, four (two, one) sources per gather.
    #[inline(always)]
    fn apply_run<const L: usize, const S: usize>(
        &self,
        run: &[(u32, u32)],
        vals: &[f64],
        acc: &mut [f64],
        lane: usize,
    ) {
        let tail = self.tail(run[0]);
        let at = |s: usize| self.at(run[s]);
        let mut t = 0;
        while run.len() - t >= 4 {
            let p = [at(t), at(t + 1), at(t + 2), at(t + 3)];
            apply_sources::<4, L, S, 0>(p, tail, vals, acc, lane, 0.0);
            t += 4;
        }
        if run.len() - t >= 2 {
            apply_sources::<2, L, S, 0>([at(t), at(t + 1)], tail, vals, acc, lane, 0.0);
            t += 2;
        }
        if run.len() - t == 1 {
            apply_sources::<1, L, S, 0>([at(t)], tail, vals, acc, lane, 0.0);
        }
    }
}

/// Factors column `j` alone, `acc` a dense scalar accumulator. One
/// straight body, not the panel's run helper, and the pivot apart from
/// the accumulator: on a matrix with little fill most columns come here,
/// with tails of a row or two, and either other form measured slower.
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
    let mut dj = scatter::<1>(a, j, struct_j, acc, 0)?;
    // Left-looking update: for every k with L(j, k) != 0, subtract
    // L(j, k) * L(:, k) from the accumulator (rows > j) and from the
    // pivot, one supernode run of sources at a time.
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
            dj = apply_sources::<4, 1, 1, 1>(p, tail, vals, acc, 0, dj);
            t += 4;
        }
        if run_end - t >= 2 {
            dj = apply_sources::<2, 1, 1, 1>([at(t), at(t + 1)], tail, vals, acc, 0, dj);
            t += 2;
        }
        if run_end - t == 1 {
            dj = apply_sources::<1, 1, 1, 1>([at(t)], tail, vals, acc, 0, dj);
            t += 1;
        }
    }
    let ljj = pivot(j, dj)?;
    diag[j] = ljj;
    // Gather and scale.
    for (v, &i) in vals[colptr[j]..colptr[j + 1]].iter_mut().zip(struct_j) {
        let i = i as usize;
        *v = acc[i] / ljj;
        acc[i] = 0.0;
    }
    Ok(())
}

/// Scatters A's column `j` into lane `lane` of an accumulator with `S`
/// lanes a row and returns `A(j, j)`. Both row lists ascend, so
/// membership in the symbolic column `struct_j` is one merge walk.
#[inline(always)]
fn scatter<const S: usize>(
    a: &SymmetricCsc,
    j: usize,
    struct_j: &[u32],
    acc: &mut [f64],
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
        while cursor < struct_j.len() && (struct_j[cursor] as usize) < i {
            cursor += 1;
        }
        if struct_j.get(cursor).map(|&r| r as usize) != Some(i) {
            return Err(NumericError::StructureMismatch(format!(
                "A({i}, {j}) not present in symbolic factor"
            )));
        }
        acc[i * S + lane] = v;
    }
    Ok(a_vals[0])
}

/// `L(j, j)` from the updated pivot `dj`. NaN-safe: a plain `dj <= 0.0`
/// would let a NaN pivot through.
fn pivot(j: usize, dj: f64) -> Result<f64, NumericError> {
    if dj.is_nan() || dj <= 0.0 {
        return Err(NumericError::NotPositiveDefinite(j));
    }
    Ok(dj.sqrt())
}

/// Factors the panel `j..j + L`, consecutive columns of one fundamental
/// supernode: `struct(L_{j+m}) = {j+m+1, …, j+L-1} ∪ struct(L_{j+L-1})`.
/// Lane `m` of row `i`, `acc[i * L + m]`, accumulates column `j + m`,
/// whose pivot sits in its own row. A source supernode holds each row of
/// the panel in all of its columns or in none, so a run of its sources
/// holds all `L` rows, and updates every lane from one load of each
/// `L(i, k)`, or a subset of them, not necessarily adjacent, whose lanes
/// it updates one at a time.
#[inline(always)]
fn factor_panel<const L: usize>(
    s: Structure<'_>,
    a: &SymmetricCsc,
    j: usize,
    diag: &mut [f64],
    vals: &mut [f64],
    acc: &mut [f64],
) -> Result<(), NumericError> {
    // A's columns must be in place before any update reaches them; a
    // failure in a later column is reported once the pivots before it
    // hold, where a column-by-column walk would have met it.
    let (mut lanes, mut late) = (L, Ok(()));
    for m in 0..L {
        match scatter::<L>(a, j + m, s.col(j + m), acc, m) {
            Ok(d) => acc[(j + m) * L + m] = d,
            Err(e) if m == 0 => return Err(e),
            Err(e) => {
                (lanes, late) = (m, Err(e));
                break;
            }
        }
    }
    // Row j + m ends with its sources in the panel, columns j..j + m,
    // applied as they become final; the rest merge by supernode,
    // ascending.
    let lists: [&[(u32, u32)]; L] = std::array::from_fn(|m| {
        let row = s.rows.row(j + m);
        &row[..row.len() - m]
    });
    let (mut t, mut ids) = ([0; L], lists.map(|list| s.snode_at(list, 0)));
    loop {
        let id = ids.into_iter().fold(u32::MAX, u32::min);
        if id == u32::MAX {
            break;
        }
        if ids == [id; L] {
            let (end, _) = s.run_end(lists[0], t[0], id);
            let len = end - t[0];
            s.apply_run::<L, L>(&lists[0][t[0]..end], vals, acc, 0);
            for m in 0..L {
                t[m] += len;
                ids[m] = s.snode_at(lists[m], t[m]);
            }
        } else {
            // Each lane the run holds, alone.
            for m in 0..L {
                if ids[m] == id {
                    let (end, next) = s.run_end(lists[m], t[m], id);
                    s.apply_run::<1, L>(&lists[m][t[m]..end], vals, acc, m);
                    (t[m], ids[m]) = (end, next);
                }
            }
        }
    }
    // Gather and scale. The panel's own rows first, column by column:
    // the pivots, lk[m][q] = L(j + q, j + m) below them, and their updates
    // to the later columns, the last subtractions their entries receive.
    let (mut ljj, mut lk) = ([0.0; L], [[0.0; L]; L]);
    for m in 0..lanes {
        ljj[m] = pivot(j + m, acc[(j + m) * L + m])?;
        diag[j + m] = ljj[m];
        for q in m + 1..L {
            let x = acc[(j + q) * L + m] / ljj[m];
            lk[m][q] = x;
            vals[s.colptr[j + m] + q - m - 1] = x;
            for r in m + 1..=q {
                acc[(j + q) * L + r] -= lk[m][r] * x;
            }
        }
    }
    late?;
    // Then every row below, once: column j + m's entry, then its updates
    // to the later columns, m = 0, 1, ….
    let at: [usize; L] = std::array::from_fn(|m| s.colptr[j + m] + L - 1 - m);
    for (t, &i) in s.col(j + L - 1).iter().enumerate() {
        let row = &mut acc[i as usize * L..][..L];
        for m in 0..L {
            let x = row[m] / ljj[m];
            vals[at[m] + t] = x;
            for r in m + 1..L {
                row[r] -= lk[m][r] * x;
            }
        }
        row.fill(0.0);
    }
    // The pivots, and the scratch lanes above each row's own column.
    acc[j * L..(j + L) * L].fill(0.0);
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
/// ascending `k`; consecutive sources from one fundamental supernode share
/// their rows below `j` and are applied four (two, one) per gather of an
/// accumulator entry. A panel's columns share their rows too, so a source
/// holding all of them updates them together, one load of each `L(i, k)`
/// for the lanes of `acc[i]` (one register under AVX2). Every entry still
/// receives its subtractions one by one in ascending `k`, a multiplication
/// and a subtraction each, rounded apart (no fused multiply-add): the
/// result is bit-identical to the one-source-at-a-time kernel and to the
/// parallel executors pinned against it, and errors name its column.
pub fn cholesky(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
) -> Result<NumericFactor, NumericError> {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        /// # Safety
        /// The CPU running it must have AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(
            a: &SymmetricCsc,
            s: &SymbolicFactor,
        ) -> Result<NumericFactor, NumericError> {
            cholesky_portable(a, s)
        }
        // SAFETY: the CPU running this has AVX2.
        return unsafe { avx2(a, symbolic) };
    }
    cholesky_portable(a, symbolic)
}

/// The body of [`cholesky`], for the baseline target.
#[inline(always)]
fn cholesky_portable(
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
    // Accumulator, zero between panels: a panel of L columns keeps L
    // lanes a row in its first L·n values, a column factored alone its
    // rows in the first n.
    let mut acc = vec![0.0f64; 4 * n];
    // Whether columns j..j + w are all in j's supernode.
    let spans =
        |j: usize, w: usize| j + w <= n && s.rows.supernode_of(j + w - 1) == s.rows.supernode_of(j);
    let mut j = 0;
    while j < n {
        if spans(j, 4) {
            factor_panel::<4>(s, a, j, diag, vals, &mut acc)?;
            j += 4;
        } else if spans(j, 2) {
            factor_panel::<2>(s, a, j, diag, vals, &mut acc)?;
            j += 2;
        } else {
            factor_column(s, a, j, diag, vals, &mut acc[..n])?;
            j += 1;
        }
    }

    Ok(NumericFactor::new(symbolic, values))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use spfactor_matrix::{gen, Coo, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    /// Runs `check` on the paper's matrices and lap9 grids up to 80²
    /// under MMD, where the dispatched entries run the AVX2 instances.
    /// Unoptimized, an instance may call its portable body, not inline it.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn on_avx2_subjects(check: impl Fn(&str, &SymmetricCsc, &SymbolicFactor)) {
        if !is_x86_feature_detected!("avx2") {
            return eprintln!("no AVX2 on this CPU: the AVX2 instances are not compared");
        }
        let paper = gen::paper::all()
            .into_iter()
            .map(|m| (m.name.to_string(), m.pattern));
        let grids = [20, 40, 80].map(|side| (format!("lap9 {side}²"), gen::lap9(side, side)));
        for (seed, (name, p)) in paper.chain(grids).enumerate() {
            let a = gen::spd_from_pattern(
                &p.permute(&order(&p, Ordering::paper_default())),
                seed as u64,
            );
            check(&name, &a, &factor_setup(&a));
        }
    }

    /// The bits of `v`, which tell `-0.0` from `0.0`.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_avx2_instance_has_the_portable_bodys_bits() {
        on_avx2_subjects(|name, a, f| {
            let want = cholesky_portable(a, f).expect("SPD");
            assert!(
                bits(&cholesky(a, f).expect("SPD").values) == bits(&want.values),
                "{name}"
            );
        });
    }

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
        // any lane of a panel alike.
        let p = gen::lap9(6, 6);
        let f = SymbolicFactor::from_pattern(&p);
        let good = gen::spd_from_pattern(&p, 4);
        let cases = [
            (0usize, -1.0),
            (30, 0.0),
            (16, -2.0),
            (17, f64::NAN),
            (28, 0.0),
            (35, -3.0),
        ];
        // Each column's lane in its panel, None for a column alone: a
        // supernode's columns go four, then two, from its first on.
        let rows = f.row_structure();
        let (mut lane, mut j) = (vec![None; f.n()], 0);
        while j < f.n() {
            let spans =
                |w: usize| j + w <= f.n() && rows.supernode_of(j + w - 1) == rows.supernode_of(j);
            let w = [4, 2].into_iter().find(|&w| spans(w)).unwrap_or(1);
            if w > 1 {
                (0..w).for_each(|m| lane[j + m] = Some(m));
            }
            j += w;
        }
        let lanes: Vec<Option<usize>> = cases.iter().map(|c| lane[c.0]).collect();
        for want in [None, Some(0), Some(1), Some(2), Some(3)] {
            assert!(lanes.contains(&want), "no case in lane {want:?}");
        }
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
    fn parts() -> (Vec<f64>, Vec<f64>, Vec<usize>, Vec<u32>) {
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
