//! Batched numeric entry points for repeated-solve workloads.
//!
//! The pattern-only front end (ordering, symbolic factorization,
//! partitioning, scheduling) is the expensive part of a sparse direct
//! solve; once it is frozen — see `spfactor_sched::ScheduleArtifact` —
//! many value sets and many right-hand sides can be run against one
//! symbolic factor. This module provides the amortized solves:
//!
//! * [`solve_many`] — forward/backward substitution of many right-hand
//!   sides against one factor (in permuted coordinates);
//! * [`solve_many_permuted`] — the same with the fill-reducing
//!   permutation applied around each solve, i.e. solutions of the
//!   *original* system `A x = b`.
//!
//! The `spfactor-serve` solver service batches requests through these.

use crate::factor::NumericFactor;
use crate::solve::{lower_solve, upper_solve};
use spfactor_matrix::Permutation;

/// Right-hand sides solved per pass over L.
const LANES: usize = 8;

/// Solves `L Lᵀ x = b` for every right-hand side in `rhs`, in the
/// factor's (permuted) coordinate system. Each solution is bit-identical
/// to a standalone [`lower_solve`] + [`upper_solve`] pair.
pub fn solve_many(l: &NumericFactor, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    solve_batch(l, None, rhs)
}

/// Solves the original system `A x = b` for every right-hand side: each
/// `b` is permuted into factor coordinates (`P b`), solved through both
/// triangles, and permuted back (`Pᵀ v`) — step 4 of the paper's direct
/// solution process, batched.
pub fn solve_many_permuted(
    l: &NumericFactor,
    perm: &Permutation,
    rhs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    solve_batch(l, Some(perm), rhs)
}

/// Up to [`LANES`] right-hand sides share one forward and one backward
/// pass over L; a lone right-hand side takes the scalar solves. Without
/// a permutation, factor and original coordinates coincide.
fn solve_batch(l: &NumericFactor, perm: Option<&Permutation>, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = l.n();
    let old_of = |new: usize| perm.map_or(new, |p| p.old_of(new));
    let new_of = |old: usize| perm.map_or(old, |p| p.new_of(old));
    let mut out = Vec::with_capacity(rhs.len());
    for chunk in rhs.chunks(LANES) {
        for b in chunk {
            assert_eq!(b.len(), n);
        }
        if let [b] = chunk {
            let mut x: Vec<f64> = (0..n).map(|new| b[old_of(new)]).collect();
            lower_solve(l, &mut x);
            upper_solve(l, &mut x);
            out.push((0..n).map(|old| x[new_of(old)]).collect());
            continue;
        }
        // Interleave: x[i][lane] is entry i of the chunk's lane-th
        // right-hand side; lanes past the chunk stay zero and are dropped.
        let mut x = vec![[0.0f64; LANES]; n];
        for (lane, b) in chunk.iter().enumerate() {
            for (new, xi) in x.iter_mut().enumerate() {
                xi[lane] = b[old_of(new)];
            }
        }
        solve_lanes(l, &mut x);
        out.extend(
            (0..chunk.len()).map(|lane| (0..n).map(|old| x[new_of(old)][lane]).collect::<Vec<_>>()),
        );
    }
    out
}

/// [`lower_solve`] then [`upper_solve`] on [`LANES`] interleaved vectors
/// at once: every lane sees the scalar solves' operations in their order,
/// and each entry of L is read once per triangle instead of once per
/// right-hand side. On a CPU with AVX2 the same body runs compiled for
/// it, a row of lanes in two registers, with the same bits: a
/// multiplication and a subtraction are rounded on their own (no fused
/// multiply-add) in both.
fn solve_lanes(l: &NumericFactor, x: &mut [[f64; LANES]]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        /// # Safety
        /// The CPU running it must have AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn avx2(l: &NumericFactor, x: &mut [[f64; LANES]]) {
            solve_lanes_portable(l, x)
        }
        // SAFETY: the CPU running this has AVX2.
        return unsafe { avx2(l, x) };
    }
    solve_lanes_portable(l, x)
}

/// The body of [`solve_lanes`], for the baseline target.
#[inline(always)]
fn solve_lanes_portable(l: &NumericFactor, x: &mut [[f64; LANES]]) {
    for j in 0..l.n() {
        let d = l.diag(j);
        let yj = x[j].map(|b| b / d);
        x[j] = yj;
        for (&i, &v) in l.col_rows(j).iter().zip(l.col_vals(j)) {
            for (b, y) in x[i as usize].iter_mut().zip(yj) {
                *b -= v * y;
            }
        }
    }
    for j in (0..l.n()).rev() {
        let mut acc = x[j];
        for (&i, &v) in l.col_rows(j).iter().zip(l.col_vals(j)) {
            for (a, b) in acc.iter_mut().zip(x[i as usize]) {
                *a -= v * b;
            }
        }
        let d = l.diag(j);
        x[j] = acc.map(|a| a / d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::cholesky;
    #[cfg(target_arch = "x86_64")]
    use crate::factor::tests::{bits, on_avx2_subjects};
    use crate::solve::{residual_norm, SpdSolver};
    use spfactor_matrix::gen;
    use spfactor_order::{order, Ordering};
    use spfactor_symbolic::SymbolicFactor;

    #[test]
    fn solve_many_permuted_solves_the_original_system() {
        let p = gen::lap9(7, 7);
        let a = gen::spd_from_pattern(&p, 9);
        let perm = order(&p, Ordering::paper_default());
        let pa = a.permute(&perm);
        let symbolic = SymbolicFactor::from_pattern(&pa.pattern());
        let l = cholesky(&pa, &symbolic).unwrap();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|k| (0..a.n()).map(|i| ((i + k) as f64).sin()).collect())
            .collect();
        let xs = solve_many_permuted(&l, &perm, &rhs);
        // Same answers as the one-at-a-time solver.
        let solver = SpdSolver::new(&a, Ordering::paper_default()).unwrap();
        for (b, x) in rhs.iter().zip(&xs) {
            assert!(residual_norm(&a, x, b) < 1e-9);
            assert_eq!(x, &solver.solve(b), "batch solve diverged");
        }
    }

    #[test]
    fn solve_many_matches_manual_substitution() {
        let p = gen::lap9(5, 5);
        let a = gen::spd_from_pattern(&p, 3);
        let symbolic = SymbolicFactor::from_pattern(&p);
        let l = cholesky(&a, &symbolic).unwrap();
        let rhs = vec![vec![1.0; a.n()], (0..a.n()).map(|i| i as f64).collect()];
        let xs = solve_many(&l, &rhs);
        for (b, x) in rhs.iter().zip(&xs) {
            let mut manual = b.clone();
            lower_solve(&l, &mut manual);
            upper_solve(&l, &mut manual);
            assert_eq!(x, &manual);
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn the_avx2_instance_has_the_portable_bodys_bits() {
        on_avx2_subjects(|name, a, f| {
            let l = cholesky(a, f).expect("SPD");
            let x: Vec<[f64; LANES]> = (0..l.n())
                .map(|i| std::array::from_fn(|k| ((i * (k + 3)) as f64 * 0.37).sin()))
                .collect();
            let (mut want, mut got) = (x.clone(), x);
            solve_lanes_portable(&l, &mut want);
            solve_lanes(&l, &mut got);
            assert!(
                bits(want.as_flattened()) == bits(got.as_flattened()),
                "{name}"
            );
        });
    }
}
