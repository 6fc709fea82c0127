//! Supernode detection.
//!
//! A *fundamental supernode* is a maximal strip of consecutive columns
//! `j, j+1, ..., j+k` such that each column is the etree parent of its
//! predecessor and the factor structures nest exactly:
//! `struct(L_{j+1}) = struct(L_j) \ {j+1}`. Within such a strip the
//! diagonal block of L is completely dense and the off-diagonal rows are
//! identical — exactly the "dense triangular block at the top + dense
//! rectangles below" shape the paper's *clusters* exploit (§3.1).
//!
//! The *relaxed* variant tolerates a bounded number of explicit zeros per
//! column when extending a strip, matching the paper's "on occasions,
//! blocks are formed by including small regions that correspond to zeros
//! ... in order to obtain larger blocks".

use crate::SymbolicFactor;
use std::ops::Range;

/// Partition of `0..n` into fundamental supernodes (column strips, in
/// ascending order).
pub fn fundamental_supernodes(factor: &SymbolicFactor) -> Vec<Range<usize>> {
    relaxed_supernodes(factor, 0)
}

/// The fundamental supernode that starts at column `start` (which must
/// start one): one entry of [`fundamental_supernodes`], found without
/// building the others, so a walk can take the supernodes one at a time.
pub fn fundamental_supernode_at(factor: &SymbolicFactor, start: usize) -> Range<usize> {
    let mut end = start + 1;
    while end < factor.n() && extends(factor, end - 1, 0) {
        end += 1;
    }
    start..end
}

/// Supernodes with zero-relaxation: column `j+1` extends the current strip
/// if it is the etree parent of `j` and `struct(L_{j+1})` has at most
/// `max_zeros` rows that are **not** in `struct(L_j) \ {j+1}`. Those extra
/// rows are positions where the earlier strip columns hold explicit zeros
/// that the partitioner will treat as part of the dense block (the paper's
/// "allowing some zeros to be a part of a triangle"). The tolerance is per
/// column extension.
pub fn relaxed_supernodes(factor: &SymbolicFactor, max_zeros: usize) -> Vec<Range<usize>> {
    let n = factor.n();
    let mut out = Vec::new();
    if n == 0 {
        return out;
    }
    let mut start = 0usize;
    for j in 0..n - 1 {
        if !extends(factor, j, max_zeros) {
            out.push(start..j + 1);
            start = j + 1;
        }
    }
    out.push(start..n);
    out
}

/// `true` if column `j + 1` may join the supernode ending at column `j`.
fn extends(factor: &SymbolicFactor, j: usize, max_zeros: usize) -> bool {
    let next = j + 1;
    if factor.etree().parent(j) != next {
        return false;
    }
    // With parent(j) = j+1, fill propagation guarantees
    // struct(L_j) \ {j+1} ⊆ struct(L_{j+1}); the *extra* rows of
    // struct(L_{j+1}) are explicit zeros the earlier strip columns would
    // carry inside the merged dense block. Count them.
    let a = factor.col(j);
    let b = factor.col(next);
    // |b \ (a \ {next})| = |b| - (|a| - [next ∈ a]); next ∈ a always
    // (it is the first sub-diagonal entry of column j).
    debug_assert_eq!(a.first(), Some(&(next as u32)));
    let extras = b.len() + 1 - a.len();
    extras <= max_zeros
}

/// The set of distinct row indices of the factor below a supernode's
/// triangle: the union of `struct(L_j) for j in sn` restricted to rows
/// `>= sn.end`. Because structures grow along the parent chain, this
/// equals the **last** column's structure for fundamental supernodes; for
/// relaxed ones the union is taken explicitly.
pub fn below_rows(factor: &SymbolicFactor, sn: &Range<usize>) -> Vec<usize> {
    let mut rows: Vec<usize> = sn
        .clone()
        .flat_map(|j| {
            factor
                .col(j)
                .iter()
                .map(|&i| i as usize)
                .filter(|&i| i >= sn.end)
        })
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};

    fn factor(p: &SymmetricPattern) -> SymbolicFactor {
        SymbolicFactor::from_pattern(p)
    }

    #[test]
    fn supernodes_partition_the_columns() {
        let p = gen::lap9(8, 8);
        let f = factor(&p);
        let sns = fundamental_supernodes(&f);
        let mut covered = 0usize;
        for sn in &sns {
            assert_eq!(sn.start, covered, "gap or overlap");
            assert!(sn.end > sn.start);
            covered = sn.end;
        }
        assert_eq!(covered, 64);
        for sn in sns {
            assert_eq!(fundamental_supernode_at(&f, sn.start), sn);
        }
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let mut e = Vec::new();
        for a in 0..6 {
            for b in (a + 1)..6 {
                e.push((b, a));
            }
        }
        let f = factor(&SymmetricPattern::from_edges(6, e));
        assert_eq!(fundamental_supernodes(&f), vec![0..6]);
    }

    #[test]
    fn diagonal_matrix_is_all_singletons() {
        let f = factor(&SymmetricPattern::from_edges(4, []));
        assert_eq!(fundamental_supernodes(&f), vec![0..1, 1..2, 2..3, 3..4]);
    }

    #[test]
    fn tridiagonal_supernodes_are_singletons() {
        // Tridiagonal: struct(L_j) = {j+1} and struct(L_{j+1}) = {j+2}.
        // Column j+1 gains row j+2, which column j does not have — a
        // 2-wide strip would carry an explicit zero at (j+2, j), so
        // fundamental supernodes are single columns (except the last pair,
        // where col n-1 is empty).
        let p = SymmetricPattern::from_edges(5, (1..5).map(|i| (i, i - 1)));
        let f = factor(&p);
        let sns = fundamental_supernodes(&f);
        assert_eq!(sns, vec![0..1, 1..2, 2..3, 3..5]);
        // With one zero of relaxation every extension is allowed.
        assert_eq!(relaxed_supernodes(&f, 1), vec![0..5]);
    }

    #[test]
    fn supernode_columns_nest() {
        let p = gen::lap9(10, 10);
        let perm = spfactor_order::order(&p, spfactor_order::Ordering::paper_default());
        let f = factor(&p.permute(&perm));
        for sn in fundamental_supernodes(&f) {
            for j in sn.start..sn.end - 1 {
                // struct(L_j) \ {j+1} == struct(L_{j+1}) up to rows < end:
                // check the defining subset property.
                let a: Vec<u32> = f
                    .col(j)
                    .iter()
                    .copied()
                    .filter(|&r| r as usize != j + 1)
                    .collect();
                let b = f.col(j + 1);
                for r in &a {
                    assert!(b.contains(r), "row {r} lost between cols {j} and {}", j + 1);
                }
                assert_eq!(a.len(), b.len(), "structure must shrink by exactly 1");
            }
        }
    }

    #[test]
    fn relaxation_merges_at_least_as_much() {
        let p = gen::lap9(12, 12);
        let perm = spfactor_order::order(&p, spfactor_order::Ordering::paper_default());
        let f = factor(&p.permute(&perm));
        let strict = fundamental_supernodes(&f).len();
        let relaxed = relaxed_supernodes(&f, 2).len();
        assert!(relaxed <= strict, "relaxation cannot split supernodes");
    }

    #[test]
    fn relaxed_tolerates_one_zero() {
        // A: edges (1,0), (2,0), (4,0), (2,1), (3,1), (4,2) =>
        // L: col0 = {1,2,4}; col1 = A{2,3} ∪ col0\{1} = {2,3,4};
        // col2 = A{4} ∪ col1\{2} = {3,4}; col3 = {4}; col4 = {}.
        // col1 gains row 3 (absent from col0): a 2-wide strip {0,1} would
        // carry an explicit zero at (3, 0), so strict supernodes split 0|1
        // while cols 1..5 nest exactly ({2,3,4} -> {3,4} -> {4} -> {}).
        let p = SymmetricPattern::from_edges(5, [(1, 0), (2, 0), (4, 0), (2, 1), (3, 1), (4, 2)]);
        let f = factor(&p);
        assert_eq!(f.col(0), &[1, 2, 4]);
        assert_eq!(f.col(1), &[2, 3, 4]);
        assert_eq!(f.col(2), &[3, 4]);
        let strict = fundamental_supernodes(&f);
        assert_eq!(strict, vec![0..1, 1..5]);
        // One zero of tolerance merges everything into a single cluster.
        assert_eq!(relaxed_supernodes(&f, 1), vec![0..5]);
    }

    #[test]
    fn below_rows_of_supernode() {
        let p = gen::lap9(6, 6);
        let perm = spfactor_order::order(&p, spfactor_order::Ordering::paper_default());
        let f = factor(&p.permute(&perm));
        for sn in fundamental_supernodes(&f) {
            let rows = below_rows(&f, &sn);
            // Sorted, unique, all >= sn.end.
            assert!(rows.windows(2).all(|w| w[0] < w[1]));
            assert!(rows.iter().all(|&r| r >= sn.end));
            // For fundamental supernodes this equals the last column's
            // structure.
            let last: Vec<usize> = f.col(sn.end - 1).iter().map(|&i| i as usize).collect();
            assert_eq!(rows, last);
        }
    }
}
