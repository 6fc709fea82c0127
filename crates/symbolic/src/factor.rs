//! Structure of the Cholesky factor L.

use crate::rows::RowStructure;
use spfactor_matrix::{Fnv1a, SymmetricPattern};
use spfactor_order::etree::{rows_of, EliminationTree, NONE};
use std::alloc::Layout;
use std::sync::{Arc, OnceLock};

/// Strict-lower column counts of the Cholesky factor of `pattern`,
/// computed from the elimination tree alone — no factor structure is
/// materialized.
///
/// Row-subtree counting (George/Liu): the nonzero columns of row `i` of
/// L are exactly the nodes of the subtree paths from each `k` with
/// `A(i, k) ≠ 0`, `k < i`, up to (excluding) `i`. Walking each path
/// until the first node already visited for row `i` touches every factor
/// entry once: `O(nnz(L))` time, three length-`n` scratch arrays.
pub fn col_counts(pattern: &SymmetricPattern, etree: &EliminationTree) -> Vec<usize> {
    let n = pattern.n();
    let mut count = vec![0usize; n];
    let mut visited = vec![usize::MAX; n];
    let (row_ptr, row_idx) = rows_of(pattern);
    for i in 0..n {
        for &k in &row_idx[row_ptr[i]..row_ptr[i + 1]] {
            let mut j = k;
            while j != i && j != NONE && visited[j] != i {
                count[j] += 1;
                visited[j] = i;
                j = etree.parent(j);
            }
        }
    }
    count
}

/// `len` zeros allocated straight into shared storage: `RepeatN` is
/// `TrustedLen`, so the collect writes into the `Arc`'s own allocation
/// with no staging `Vec` to copy from.
fn shared_zeros<T: Copy + Default>(len: usize) -> Arc<[T]> {
    std::iter::repeat_n(T::default(), len).collect()
}

/// Size of the allocation behind an `Arc` holding a value of `layout`:
/// the two reference counts, then the value, padded to their alignment.
fn arc_bytes(layout: Layout) -> usize {
    let counts = Layout::new::<[usize; 2]>();
    counts
        .extend(layout)
        .expect("a valid layout")
        .0
        .pad_to_align()
        .size()
}

/// The symbolic Cholesky factor of a (pre-ordered) symmetric matrix:
/// the strict-lower-triangle structure of L, plus the elimination tree it
/// was derived from. The diagonal of L is implicit (always nonzero).
///
/// The column structure (`colptr`, `rowidx`) sits in shared storage:
/// clones of the factor and every numeric factor computed against it
/// hold handles on the one copy ([`Self::column_structure`]). A row index
/// is below `n`, which fits `u32`, so it takes four bytes; a column
/// offset counts entries, which can pass `u32::MAX`, so it stays `usize`.
#[derive(Clone, Debug)]
pub struct SymbolicFactor {
    n: usize,
    colptr: Arc<[usize]>,
    rowidx: Arc<[u32]>,
    etree: EliminationTree,
    /// Strict-lower nonzeros of A (for fill accounting).
    nnz_a_strict: usize,
    /// The transpose of the structure, built on first use and shared by
    /// clones; derived data, so not part of [`Self::fingerprint`].
    rows: Arc<OnceLock<RowStructure>>,
}

impl SymbolicFactor {
    /// Computes the factor structure of `pattern` in its current ordering.
    ///
    /// Column merging up the elimination tree: `struct(L_j)` is the union
    /// of the below-diagonal structure of `A_j` with `struct(L_c) \ {j}`
    /// for every etree child `c` of `j`. The column counts are known in
    /// closed form from the etree first ([`col_counts`]), so the CSC
    /// arrays are allocated exactly once at their final size and each
    /// column is merged in place — no per-column set is materialized.
    /// Both arrays are built straight into their shared storage.
    /// `O(nnz(L))` amortized plus the per-column sorts.
    ///
    /// Under a recorder scope the construction is timed as the span
    /// `symbolic.from_pattern` and the factor's headline statistics are
    /// recorded as `symbolic.*` gauges — `n`, `nnz_lower`, `fill_in`,
    /// `flops`, `paper_work` and the fundamental supernode count, and
    /// the heap the factor keeps as `heap.symbolic.kept.bytes`
    /// ([`Self::heap_bytes`]; see `docs/METRICS.md`).
    pub fn from_pattern(pattern: &SymmetricPattern) -> Self {
        let rec = spfactor_trace::current();
        let factor = rec.time("symbolic.from_pattern", || Self::build(pattern));
        if rec.is_recording() {
            rec.gauge("heap.symbolic.kept.bytes", factor.heap_bytes() as f64);
            rec.gauge("symbolic.n", factor.n() as f64);
            rec.gauge("symbolic.nnz_lower", factor.nnz_lower() as f64);
            rec.gauge("symbolic.fill_in", factor.fill_in() as f64);
            rec.gauge("symbolic.flops", factor.flop_count() as f64);
            rec.gauge("symbolic.paper_work", factor.paper_work() as f64);
            rec.gauge(
                "symbolic.fundamental_supernodes",
                crate::supernode::fundamental_supernodes(&factor).len() as f64,
            );
        }
        factor
    }

    fn build(pattern: &SymmetricPattern) -> Self {
        let n = pattern.n();
        assert!(
            u32::try_from(n).is_ok(),
            "the factor stores row indices as u32"
        );
        let etree = EliminationTree::from_pattern(pattern);
        let counts = col_counts(pattern, &etree);
        let mut colptr_handle = shared_zeros(n + 1);
        let colptr = Arc::get_mut(&mut colptr_handle).expect("a fresh handle is unique");
        for j in 0..n {
            colptr[j + 1] = colptr[j] + counts[j];
        }
        let mut rowidx_handle = shared_zeros(colptr[n]);
        let rowidx = Arc::get_mut(&mut rowidx_handle).expect("a fresh handle is unique");
        let children = etree.children();
        let mut marker = vec![usize::MAX; n];
        for j in 0..n {
            let start = colptr[j];
            let mut cursor = start;
            // A's column structure (rows > j).
            for &i in pattern.col(j) {
                if marker[i] != j {
                    marker[i] = j;
                    rowidx[cursor] = i as u32;
                    cursor += 1;
                }
            }
            // Merge children factor columns (minus row j itself); the
            // children sit strictly earlier in `rowidx`, so plain index
            // copies suffice.
            for &c in children.of(j) {
                for r in colptr[c]..colptr[c + 1] {
                    let i = rowidx[r] as usize;
                    if i != j && marker[i] != j {
                        debug_assert!(i > j, "child structure must lie below parent");
                        marker[i] = j;
                        rowidx[cursor] = i as u32;
                        cursor += 1;
                    }
                }
            }
            debug_assert_eq!(cursor, colptr[j + 1], "closed-form count off for col {j}");
            rowidx[start..cursor].sort_unstable();
        }
        SymbolicFactor {
            n,
            colptr: colptr_handle,
            rowidx: rowidx_handle,
            etree,
            nnz_a_strict: pattern.nnz_strict_lower(),
            rows: Arc::default(),
        }
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Strict-lower row indices of factor column `j`, ascending.
    #[inline]
    pub fn col(&self, j: usize) -> &[u32] {
        &self.rowidx[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Column start offsets into [`Self::rowidx`] (`n + 1` entries).
    #[inline]
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Strict-lower row indices of every column, concatenated.
    #[inline]
    pub fn rowidx(&self) -> &[u32] {
        &self.rowidx
    }

    /// Shared handles on [`Self::colptr`] and [`Self::rowidx`]. A numeric
    /// factor holds these instead of a copy, so however many value sets
    /// are factored against this structure, it is stored once.
    pub fn column_structure(&self) -> (Arc<[usize]>, Arc<[u32]>) {
        (Arc::clone(&self.colptr), Arc::clone(&self.rowidx))
    }

    /// Bytes the factor keeps on the heap: the shared `colptr` (8 B a
    /// column and one more) and `rowidx` (4 B a strict-lower entry), each
    /// behind its reference counts, the elimination tree's parent array
    /// and the empty cell the row structure is built into. A row
    /// structure built later ([`Self::row_structure`]) is not counted.
    pub fn heap_bytes(&self) -> usize {
        arc_bytes(Layout::for_value(&*self.colptr))
            + arc_bytes(Layout::for_value(&*self.rowidx))
            + arc_bytes(Layout::new::<OnceLock<RowStructure>>())
            + self.etree.heap_bytes()
    }

    /// The row structure of L — for each row `j` the columns `k < j` with
    /// `L(j, k)` stored. Built on the first call (one `O(nnz(L))` counting
    /// sort) and shared with every clone of this factor, so the numeric
    /// kernel pays for the transpose once however many value sets are
    /// factored against this structure.
    pub fn row_structure(&self) -> &RowStructure {
        self.rows.get_or_init(|| RowStructure::build(self))
    }

    /// Number of strict-lower entries in column `j` (excluding diagonal).
    #[inline]
    pub fn col_count(&self, j: usize) -> usize {
        self.colptr[j + 1] - self.colptr[j]
    }

    /// Strict-lower nonzeros of L.
    #[inline]
    pub fn nnz_strict_lower(&self) -> usize {
        self.rowidx.len()
    }

    /// Nonzeros of L including the diagonal — the count the paper's
    /// Table 1 reports as "No. of non-zeros in factor".
    #[inline]
    pub fn nnz_lower(&self) -> usize {
        self.rowidx.len() + self.n
    }

    /// Fill-in: factor entries that are structural zeros of A.
    #[inline]
    pub fn fill_in(&self) -> usize {
        self.rowidx.len() - self.nnz_a_strict
    }

    /// The elimination tree.
    pub fn etree(&self) -> &EliminationTree {
        &self.etree
    }

    /// `true` if `(i, j)`, `i > j`, is a factor nonzero. A row past
    /// `u32::MAX` is past `n`, so it is not one.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        u32::try_from(i).is_ok_and(|i| self.col(j).binary_search(&i).is_ok())
    }

    /// Total number of factor entries including the implicit diagonal:
    /// `n + nnz_strict_lower()`. Entry ids (see [`Self::entry_id`]) are
    /// dense in `0..num_entries()`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.n + self.rowidx.len()
    }

    /// Dense id of factor entry `(i, j)` with `i >= j`: diagonal entries
    /// map to `j` (`0..n`), strict-lower entries to `n +` their position
    /// in the column-compressed structure. Returns `None` for structural
    /// zeros.
    pub fn entry_id(&self, i: usize, j: usize) -> Option<usize> {
        if i == j {
            return (j < self.n).then_some(j);
        }
        let i = u32::try_from(i).ok()?;
        let base = self.colptr[j];
        self.col(j)
            .binary_search(&i)
            .ok()
            .map(|off| self.n + base + off)
    }

    /// Inverse of [`Self::entry_id`]: the `(row, col)` of a dense entry id.
    pub fn entry_coords(&self, id: usize) -> (usize, usize) {
        if id < self.n {
            return (id, id);
        }
        let pos = id - self.n;
        debug_assert!(pos < self.rowidx.len());
        let j = self.colptr.partition_point(|&p| p <= pos) - 1;
        (self.rowidx[pos] as usize, j)
    }

    /// A stable 64-bit fingerprint of the factor structure (dimension,
    /// column pointers, row indices) — FNV-1a ([`Fnv1a`]), deterministic across runs
    /// and platforms. Two symbolic factors with the same fingerprint have
    /// the same structure, so a cached factor can be pinned against a
    /// freshly computed one without a full comparison (the serve layer's
    /// artifact integrity check).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.n as u64);
        for &p in self.colptr.iter() {
            h.write_u64(p as u64);
        }
        for &i in self.rowidx.iter() {
            h.write_u64(i as u64);
        }
        h.finish()
    }

    /// The factor structure as a [`SymmetricPattern`] (strict lower).
    pub fn to_pattern(&self) -> SymmetricPattern {
        let rowidx = self.rowidx.iter().map(|&i| i as usize).collect();
        SymmetricPattern::from_parts(self.n, self.colptr.to_vec(), rowidx)
            .expect("factor columns are sorted, strict, in-bounds")
    }

    /// Number of multiply-add pairs in the numeric factorization,
    /// `Σ_j c_j (c_j + 3) / 2` with `c_j` the strict column count — the
    /// standard Cholesky operation count (excluding square roots).
    pub fn flop_count(&self) -> usize {
        (0..self.n)
            .map(|j| {
                let c = self.col_count(j);
                c * (c + 3) / 2
            })
            .sum()
    }

    /// Work under the **paper's cost model** (§4): each update of an
    /// element by a pair of off-diagonal elements costs 2 units; each
    /// update/scale by a diagonal element costs 1 unit.
    ///
    /// For column `k` of L with `c_k` strict-lower entries: its outer
    /// product updates `c_k (c_k + 1) / 2` elements at 2 units each, and
    /// scaling column `k` by its diagonal costs `c_k` units.
    pub fn paper_work(&self) -> usize {
        (0..self.n)
            .map(|j| {
                let c = self.col_count(j);
                c * (c + 1) + c
            })
            .sum()
    }

    /// Per-column depth in the elimination tree (roots at 0) — the
    /// column-level critical path is `max + 1`.
    pub fn depths(&self) -> Vec<usize> {
        self.etree.depths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;
    use spfactor_order::{mmd::multiple_minimum_degree, Ordering};

    /// 4-cycle: A has edges (1,0), (2,0), (3,1), (3,2); eliminating 0
    /// fills (2,1)? No: neighbours of 0 are {1, 2}, so fill (2,1). Then
    /// struct: col0 = {1,2}, col1 = {2,3}, col2 = {3}, col3 = {}.
    #[test]
    fn fingerprint_tracks_structure() {
        let p = gen::lap9(5, 5);
        let a = SymbolicFactor::from_pattern(&p);
        let b = SymbolicFactor::from_pattern(&p);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other = SymbolicFactor::from_pattern(&gen::lap9(5, 6));
        assert_ne!(a.fingerprint(), other.fingerprint());
    }

    #[test]
    fn factor_of_square_cycle() {
        let p = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2)]);
        let f = SymbolicFactor::from_pattern(&p);
        assert_eq!(f.col(0), &[1, 2]);
        assert_eq!(f.col(1), &[2, 3]);
        assert_eq!(f.col(2), &[3]);
        assert_eq!(f.col(3), &[] as &[u32]);
        assert_eq!(f.fill_in(), 1);
        assert_eq!(f.nnz_lower(), 4 + 5);
    }

    #[test]
    fn factor_of_tridiagonal_has_no_fill() {
        let p = SymmetricPattern::from_edges(6, (1..6).map(|i| (i, i - 1)));
        let f = SymbolicFactor::from_pattern(&p);
        assert_eq!(f.fill_in(), 0);
        assert_eq!(f.nnz_strict_lower(), 5);
    }

    #[test]
    fn factor_of_dense_matrix() {
        let mut e = Vec::new();
        for a in 0..5 {
            for b in (a + 1)..5 {
                e.push((b, a));
            }
        }
        let p = SymmetricPattern::from_edges(5, e);
        let f = SymbolicFactor::from_pattern(&p);
        assert_eq!(f.nnz_strict_lower(), 10); // full lower triangle
        assert_eq!(f.fill_in(), 0);
        // flops: sum c(c+3)/2 for c = 4,3,2,1,0 => 14+9+5+2+0 = 30
        assert_eq!(f.flop_count(), 30);
    }

    #[test]
    fn closed_form_counts_match_materialized_structure() {
        for p in [
            gen::lap9(7, 7),
            gen::grid5(6, 5),
            gen::power_network(50, 10, 4),
        ] {
            let f = SymbolicFactor::from_pattern(&p);
            let counts = col_counts(&p, f.etree());
            let expect: Vec<usize> = (0..p.n()).map(|j| f.col_count(j)).collect();
            assert_eq!(counts, expect);
        }
    }

    #[test]
    fn fill_matches_naive_elimination() {
        // Cross-validate the etree-based symbolic factorization against
        // naive elimination on several structures.
        for p in [
            gen::lap9(6, 6),
            gen::grid5(7, 4),
            gen::power_network(40, 8, 2),
            gen::frame_shell(4, 6),
        ] {
            let f = SymbolicFactor::from_pattern(&p);
            let naive = spfactor_order::mmd::elimination_fill(&p);
            assert_eq!(f.fill_in(), naive, "fill mismatch");
        }
    }

    #[test]
    fn factor_contains_a_entries() {
        let p = gen::lap9(5, 5);
        let f = SymbolicFactor::from_pattern(&p);
        for (i, j) in p.iter_entries() {
            assert!(f.contains(i, j), "A entry ({i},{j}) missing from L");
        }
    }

    #[test]
    fn first_subdiagonal_is_etree_parent() {
        let p = gen::lap9(6, 6);
        let perm = multiple_minimum_degree(&p, 0);
        let pp = p.permute(&perm);
        let f = SymbolicFactor::from_pattern(&pp);
        for j in 0..pp.n() {
            match f.col(j).first() {
                Some(&i) => assert_eq!(f.etree().parent(j), i as usize),
                None => assert_eq!(f.etree().parent(j), spfactor_order::etree::NONE),
            }
        }
    }

    #[test]
    fn lap30_factor_size_matches_paper_regime() {
        // Table 1: LAP30 factor has 16697 nonzeros under GENMMD. Our MMD
        // tie-breaks differently; require the same regime (within 35%).
        let p = gen::lap9(30, 30);
        let perm = spfactor_order::order(&p, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&p.permute(&perm));
        let got = f.nnz_lower() as f64;
        let rel = (got - 16697.0).abs() / 16697.0;
        assert!(rel < 0.35, "LAP30 nnz(L) = {got} vs paper 16697");
    }

    #[test]
    fn paper_work_of_single_column() {
        // One column with c strict entries: updates c(c+1)/2 elements at 2
        // units + c scalings at 1 unit.
        let p = SymmetricPattern::from_edges(4, [(1, 0), (2, 0), (3, 0)]);
        let f = SymbolicFactor::from_pattern(&p);
        // col0 = {1,2,3}: c=3 -> 3*4 + 3 = 15. Eliminating col 0 fills
        // columns 1 and 2 completely: col1 = {2,3} -> 2*3+2 = 8,
        // col2 = {3} -> 1*2+1 = 3, col3 = 0.
        assert_eq!(f.paper_work(), 15 + 8 + 3);
    }

    #[test]
    fn empty_factor() {
        let f = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(0, []));
        assert_eq!(f.n(), 0);
        assert_eq!(f.nnz_lower(), 0);
        assert_eq!(f.flop_count(), 0);
    }

    #[test]
    fn entry_ids_are_dense_and_invertible() {
        let p = gen::lap9(5, 5);
        let f = SymbolicFactor::from_pattern(&p);
        let mut seen = vec![false; f.num_entries()];
        for j in 0..f.n() {
            let d = f.entry_id(j, j).unwrap();
            assert!(!seen[d]);
            seen[d] = true;
            assert_eq!(f.entry_coords(d), (j, j));
            for &i in f.col(j) {
                let i = i as usize;
                let id = f.entry_id(i, j).unwrap();
                assert!(!seen[id]);
                seen[id] = true;
                assert_eq!(f.entry_coords(id), (i, j));
            }
        }
        assert!(seen.iter().all(|&s| s), "entry ids must be dense");
    }

    #[test]
    fn entry_id_of_structural_zero_is_none() {
        let p = SymmetricPattern::from_edges(3, [(1, 0)]);
        let f = SymbolicFactor::from_pattern(&p);
        assert!(f.entry_id(2, 0).is_none());
        assert!(f.entry_id(2, 1).is_none());
        assert!(f.entry_id(1, 0).is_some());
    }

    #[test]
    fn a_row_past_u32_is_not_a_stored_row() {
        // (1, 0) is stored; row 2^32 + 1 would truncate onto it.
        let f = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(3, [(1, 0)]));
        let past = (1usize << 32) + 1;
        assert!(f.contains(1, 0) && f.entry_id(1, 0).is_some());
        assert!(!f.contains(past, 0));
        assert_eq!(f.entry_id(past, 0), None);
    }

    #[test]
    fn to_pattern_round_trips() {
        let p = gen::lap9(4, 4);
        let f = SymbolicFactor::from_pattern(&p);
        let fp = f.to_pattern();
        assert_eq!(fp.nnz_strict_lower(), f.nnz_strict_lower());
        for j in 0..p.n() {
            let col: Vec<usize> = f.col(j).iter().map(|&i| i as usize).collect();
            assert_eq!(fp.col(j), col);
        }
    }
}
