//! Triangular solves and the end-to-end SPD solver.
//!
//! The paper's step 4: "using the computed L, solve the triangular systems
//! `L u = P b`, `Lᵀ v = u` and set `x = Pᵀ v`".

use crate::factor::{cholesky, NumericFactor};
use crate::NumericError;
use spfactor_matrix::{Permutation, SymmetricCsc};
use spfactor_order::{order, Ordering};
use spfactor_symbolic::SymbolicFactor;

/// Solves `L y = b` in place (forward substitution).
pub fn lower_solve(l: &NumericFactor, b: &mut [f64]) {
    assert_eq!(b.len(), l.n());
    for j in 0..l.n() {
        b[j] /= l.diag(j);
        let yj = b[j];
        for (&i, &v) in l.col_rows(j).iter().zip(l.col_vals(j)) {
            b[i as usize] -= v * yj;
        }
    }
}

/// Solves `Lᵀ x = y` in place (backward substitution).
pub fn upper_solve(l: &NumericFactor, b: &mut [f64]) {
    assert_eq!(b.len(), l.n());
    for j in (0..l.n()).rev() {
        let mut acc = b[j];
        for (&i, &v) in l.col_rows(j).iter().zip(l.col_vals(j)) {
            acc -= v * b[i as usize];
        }
        b[j] = acc / l.diag(j);
    }
}

/// An SPD direct solver bundling all four steps: ordering, symbolic
/// factorization, numeric factorization, and triangular solves.
#[derive(Clone, Debug)]
pub struct SpdSolver {
    perm: Permutation,
    factor: NumericFactor,
    /// The symbolic factor (exposed for inspection — its structure drives
    /// the partitioning experiments).
    symbolic: SymbolicFactor,
}

impl SpdSolver {
    /// Orders `a` with `method`, factors it, and returns a reusable
    /// solver.
    pub fn new(a: &SymmetricCsc, method: Ordering) -> Result<Self, NumericError> {
        let perm = order(&a.pattern(), method);
        let pa = a.permute(&perm);
        let symbolic = SymbolicFactor::from_pattern(&pa.pattern());
        let factor = cholesky(&pa, &symbolic)?;
        Ok(SpdSolver {
            perm,
            factor,
            symbolic,
        })
    }

    /// Solves `A x = b`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        // u = P b
        let mut u = self.perm.apply(b);
        lower_solve(&self.factor, &mut u);
        upper_solve(&self.factor, &mut u);
        // x = Pᵀ v
        self.perm.apply_inverse(&u)
    }

    /// The numeric factor (in permuted coordinates).
    pub fn factor(&self) -> &NumericFactor {
        &self.factor
    }

    /// The symbolic factor (in permuted coordinates).
    pub fn symbolic(&self) -> &SymbolicFactor {
        &self.symbolic
    }

    /// The fill-reducing permutation used.
    pub fn permutation(&self) -> &Permutation {
        &self.perm
    }
}

/// Max-norm of the residual `A x − b`; NaN if any component is NaN, so
/// that a `residual_norm(..) < tol` check fails on it. (`f64::max`
/// returns its other argument when one is NaN and would drop it.)
pub fn residual_norm(a: &SymmetricCsc, x: &[f64], b: &[f64]) -> f64 {
    a.mul_vec(x)
        .iter()
        .zip(b)
        .map(|(ax, bi)| (ax - bi).abs())
        .fold(0.0, |m, r| if r.is_nan() || r > m { r } else { m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, Coo};

    #[test]
    fn triangular_solves_invert_each_other() {
        // L from the known 3x3 example.
        let mut coo = Coo::new(3);
        coo.push(0, 0, 4.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        coo.push(2, 1, 2.0).unwrap();
        coo.push(2, 2, 5.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let l = cholesky(&a, &f).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let mut y = b.clone();
        lower_solve(&l, &mut y);
        upper_solve(&l, &mut y);
        // y = A^{-1} b
        assert!(residual_norm(&a, &y, &b) < 1e-12);
    }

    #[test]
    fn a_nan_in_the_solution_fails_every_tolerance() {
        let p = gen::lap9(4, 4);
        let a = gen::spd_from_pattern(&p, 1);
        let b: Vec<f64> = (0..a.n()).map(|i| i as f64 - 3.0).collect();
        let s = SpdSolver::new(&a, Ordering::paper_default()).unwrap();
        for at in [0, 7, a.n() - 1] {
            let mut x = s.solve(&b);
            assert!(residual_norm(&a, &x, &b) < 1e-9);
            x[at] = f64::NAN;
            let r = residual_norm(&a, &x, &b);
            let passes = r < 1e-9;
            assert!(r.is_nan() && !passes, "NaN at {at}: residual {r}");
        }
    }

    #[test]
    fn solver_end_to_end_all_orderings() {
        let p = gen::lap9(7, 7);
        let a = gen::spd_from_pattern(&p, 5);
        let b: Vec<f64> = (0..a.n()).map(|i| (i as f64).cos()).collect();
        for m in [
            Ordering::Natural,
            Ordering::ReverseCuthillMcKee,
            Ordering::MultipleMinimumDegree { delta: 0 },
            Ordering::NestedDissection,
        ] {
            let s = SpdSolver::new(&a, m).unwrap();
            let x = s.solve(&b);
            let r = residual_norm(&a, &x, &b);
            assert!(r < 1e-9, "{m:?}: residual {r}");
        }
    }

    #[test]
    fn solver_on_paper_scale_matrix() {
        // LAP30 itself (900 unknowns) with random SPD values: the full
        // paper pipeline must solve it accurately.
        let m = gen::paper::lap30();
        let a = gen::spd_from_pattern(&m.pattern, 30);
        let b: Vec<f64> = (0..a.n()).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let s = SpdSolver::new(&a, Ordering::paper_default()).unwrap();
        let x = s.solve(&b);
        assert!(residual_norm(&a, &x, &b) < 1e-8);
    }

    #[test]
    fn mmd_solver_has_less_fill_than_natural() {
        let p = gen::lap9(10, 10);
        let a = gen::spd_from_pattern(&p, 8);
        let nat = SpdSolver::new(&a, Ordering::Natural).unwrap();
        let mmd = SpdSolver::new(&a, Ordering::paper_default()).unwrap();
        assert!(mmd.symbolic().fill_in() < nat.symbolic().fill_in());
    }

    #[test]
    fn identity_system() {
        let mut coo = Coo::new(4);
        for j in 0..4 {
            coo.push(j, j, 1.0).unwrap();
        }
        let a = coo.to_csc();
        let s = SpdSolver::new(&a, Ordering::Natural).unwrap();
        let b = vec![5.0, -1.0, 0.0, 2.0];
        assert_eq!(s.solve(&b), b);
    }
}
