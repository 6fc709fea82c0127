//! Supernodal (blocked) right-looking Cholesky.
//!
//! The paper's whole premise is that the factor decomposes into dense
//! blocks ("with blocking, it is possible to achieve a high ratio of
//! computation to communication per block"). This module exploits the
//! same structure *numerically*: columns are processed a supernode at a
//! time — dense Cholesky of the diagonal triangle, a dense triangular
//! solve for the sub-diagonal panel, then a dense outer-product update
//! scattered to the ancestors. On matrices with large supernodes this is
//! the classic high-performance formulation; results match the
//! simplicial code to floating-point roundoff (summation order differs).

use crate::factor::NumericFactor;
use crate::NumericError;
use spfactor_matrix::SymmetricCsc;
use spfactor_symbolic::{supernode, SymbolicFactor};

/// Right-looking supernodal Cholesky. `relax_zeros` is passed to the
/// supernode detection (0 = fundamental supernodes).
pub fn cholesky_supernodal(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    relax_zeros: usize,
) -> Result<NumericFactor, NumericError> {
    let n = a.n();
    if n != symbolic.n() {
        return Err(NumericError::StructureMismatch(format!(
            "matrix is {n}, symbolic factor is {}",
            symbolic.n()
        )));
    }
    // Values by entry id, on the symbolic factor's own structure.
    let (colptr, rowidx) = (symbolic.colptr(), symbolic.rowidx());
    let mut values = vec![0.0f64; symbolic.num_entries()];
    let (diag, vals) = values.split_at_mut(n);

    // Scatter A into the factor storage (updates accumulate on top).
    // Positions located by binary search in the symbolic column.
    let find = |i: usize, j: usize| -> Option<usize> {
        let col = &rowidx[colptr[j]..colptr[j + 1]];
        col.binary_search(&i).ok().map(|off| colptr[j] + off)
    };
    #[allow(clippy::needless_range_loop)] // j indexes matrix columns and diag together
    for j in 0..n {
        let rows = a.col_rows(j);
        let avals = a.col_values(j);
        diag[j] = avals[0];
        for (&i, &v) in rows[1..].iter().zip(&avals[1..]) {
            let pos = find(i, j).ok_or_else(|| {
                NumericError::StructureMismatch(format!("A({i}, {j}) not in symbolic factor"))
            })?;
            vals[pos] = v;
        }
    }

    let sns = supernode::relaxed_supernodes(symbolic, relax_zeros);
    // Dense panel workspace, reused across supernodes.
    let mut panel: Vec<f64> = Vec::new();
    for sn in sns {
        let w = sn.end - sn.start;
        // Row set of the supernode below its triangle (union across
        // columns; equal to the last column's structure for fundamental
        // supernodes).
        let below = supernode::below_rows(symbolic, &sn);
        let h = w + below.len();
        // Gather the supernode's columns into a dense column-major panel.
        // Panel row order: sn columns (triangle), then `below`.
        panel.clear();
        panel.resize(h * w, 0.0);
        let row_slot = |i: usize| -> usize {
            if i < sn.end {
                i - sn.start
            } else {
                w + below.binary_search(&i).expect("row in below set")
            }
        };
        for (c, j) in sn.clone().enumerate() {
            panel[c * h + c] = diag[j];
            for idx in colptr[j]..colptr[j + 1] {
                panel[c * h + row_slot(rowidx[idx])] = vals[idx];
            }
        }
        // Dense Cholesky of the w×w triangle + panel solve, column by
        // column (right-looking within the panel).
        for c in 0..w {
            let djj = panel[c * h + c];
            // NaN-safe: a plain `djj <= 0.0` would let a NaN pivot through.
            if djj.is_nan() || djj <= 0.0 {
                return Err(NumericError::NotPositiveDefinite(sn.start + c));
            }
            let ljj = djj.sqrt();
            panel[c * h + c] = ljj;
            for r in (c + 1)..h {
                panel[c * h + r] /= ljj;
            }
            // Update the remaining panel columns.
            for c2 in (c + 1)..w {
                let l = panel[c * h + c2];
                if l != 0.0 {
                    for r in c2..h {
                        panel[c2 * h + r] -= l * panel[c * h + r];
                    }
                }
            }
        }
        // Scatter the factored panel back.
        for (c, j) in sn.clone().enumerate() {
            diag[j] = panel[c * h + c];
            for idx in colptr[j]..colptr[j + 1] {
                vals[idx] = panel[c * h + row_slot(rowidx[idx])];
            }
        }
        // Outer-product update of the ancestors: for below rows
        // rj <= ri, L(ri, rj) -= Σ_c B[ri, c] * B[rj, c].
        for (bj, &rj) in below.iter().enumerate() {
            // Diagonal target.
            let mut acc = 0.0;
            for c in 0..w {
                let v = panel[c * h + w + bj];
                acc += v * v;
            }
            diag[rj] -= acc;
            // Off-diagonal targets in column rj.
            for &ri in &below[bj + 1..] {
                let mut acc = 0.0;
                let ri_slot = row_slot(ri);
                for c in 0..w {
                    acc += panel[c * h + ri_slot] * panel[c * h + w + bj];
                }
                if acc != 0.0 {
                    let pos = find(ri, rj).ok_or_else(|| {
                        NumericError::StructureMismatch(format!(
                            "update target ({ri}, {rj}) missing from factor"
                        ))
                    })?;
                    vals[pos] -= acc;
                }
            }
        }
    }

    Ok(NumericFactor::new(symbolic, values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::cholesky;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn spd(p: &SymmetricPattern, seed: u64) -> (SymmetricCsc, SymbolicFactor) {
        let perm = order(p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        (a, f)
    }

    fn assert_factors_close(a: &NumericFactor, b: &NumericFactor, tol: f64) {
        assert_eq!(a.n(), b.n());
        for j in 0..a.n() {
            assert!(
                (a.diag(j) - b.diag(j)).abs() <= tol * a.diag(j).abs(),
                "diag {j}: {} vs {}",
                a.diag(j),
                b.diag(j)
            );
            for (x, y) in a.col_vals(j).iter().zip(b.col_vals(j)) {
                assert!(
                    (x - y).abs() <= tol * (1.0 + x.abs()),
                    "col {j}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn supernodal_matches_simplicial() {
        for (p, seed) in [
            (gen::lap9(8, 8), 1u64),
            (gen::grid5(6, 6), 2),
            (gen::frame_shell(4, 8), 3),
            (gen::power_network(50, 10, 4), 4),
        ] {
            let (a, f) = spd(&p, seed);
            let seq = cholesky(&a, &f).unwrap();
            let blocked = cholesky_supernodal(&a, &f, 0).unwrap();
            assert_factors_close(&seq, &blocked, 1e-11);
        }
    }

    #[test]
    fn supernodal_on_dense_matrix() {
        // One supernode covering the whole matrix: pure dense Cholesky.
        let mut e = Vec::new();
        for x in 0..8usize {
            for y in (x + 1)..8 {
                e.push((y, x));
            }
        }
        let p = SymmetricPattern::from_edges(8, e);
        let a = gen::spd_from_pattern(&p, 9);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let seq = cholesky(&a, &f).unwrap();
        let blocked = cholesky_supernodal(&a, &f, 0).unwrap();
        assert_factors_close(&seq, &blocked, 1e-12);
    }

    #[test]
    fn supernodal_with_relaxation_still_correct() {
        // Relaxed supernodes carry explicit zeros inside the panels; the
        // numbers must be unaffected.
        let p = gen::lap9(7, 7);
        let (a, f) = spd(&p, 5);
        let seq = cholesky(&a, &f).unwrap();
        for relax in [0usize, 1, 2, 4] {
            let blocked = cholesky_supernodal(&a, &f, relax).unwrap();
            assert_factors_close(&seq, &blocked, 1e-11);
        }
    }

    #[test]
    fn supernodal_detects_indefiniteness() {
        use spfactor_matrix::Coo;
        let mut coo = Coo::new(2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        assert!(matches!(
            cholesky_supernodal(&a, &f, 0),
            Err(NumericError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn supernodal_solve_residual() {
        let m = gen::lap9(10, 10);
        let (a, f) = spd(&m, 6);
        let l = cholesky_supernodal(&a, &f, 1).unwrap();
        let b: Vec<f64> = (0..a.n()).map(|i| (i as f64).cos()).collect();
        let mut x = b.clone();
        crate::solve::lower_solve(&l, &mut x);
        crate::solve::upper_solve(&l, &mut x);
        let r = crate::solve::residual_norm(&a, &x, &b);
        assert!(r < 1e-9, "residual {r}");
    }
}
