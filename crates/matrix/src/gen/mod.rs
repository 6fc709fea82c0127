//! Test-matrix generators.
//!
//! The paper evaluates on five Harwell-Boeing matrices (Table 1). Those
//! files are not redistributable, so this module provides:
//!
//! * an **exact** generator for `LAP30` — the 9-point discretization of the
//!   Laplacian on the 30×30 unit-square grid ([`lap9`]; `lap9(30, 30)` has
//!   exactly 900 equations and 4322 lower-triangle nonzeros, matching
//!   Table 1);
//! * an **exact** generator for the Figure 2 example — a 5-point finite
//!   element 5×5 grid whose assembled matrix is 41×41 ([`grid5_fe`]);
//! * **structure-equivalent** generators for the other four matrices
//!   (power network for `BUS1138`, random geometric graph for `CANN1072`,
//!   cylindrical frame shell for `DWT512`, L-shaped triangular mesh for
//!   `LSHP1009`), tuned to the paper's (n, nnz) — see `DESIGN.md`.
//!
//! The [`paper`] module bundles the five tuned instances under the names
//! used in the paper's tables.

mod frame;
mod geometric;
mod grid;
mod lshape;
pub mod paper;
mod power;

pub use frame::frame_shell;
pub use geometric::random_geometric;
pub use grid::{grid5, grid5_fe, grid7, lap9};
pub use lshape::lshape;
pub use power::power_network;

use crate::{SymmetricCsc, SymmetricPattern};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Fills a structural pattern with deterministic pseudo-random values and a
/// dominant diagonal, producing a symmetric positive-definite matrix with
/// the given structure.
///
/// Off-diagonal values are drawn uniformly from `[-1, -0.1] ∪ [0.1, 1]`
/// (bounded away from zero so the structure is not accidentally cancelled),
/// and every diagonal entry is set to `1 + Σ|row|`, which makes the matrix
/// strictly diagonally dominant and hence SPD.
pub fn spd_from_pattern(pattern: &SymmetricPattern, seed: u64) -> SymmetricCsc {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = pattern.n();
    // A pattern column is already the sorted strict-lower part of the CSC
    // column: put the diagonal slot in front and draw in storage order.
    let mut colptr = Vec::with_capacity(n + 1);
    let mut rowidx = Vec::with_capacity(pattern.nnz_lower());
    let mut values = Vec::with_capacity(pattern.nnz_lower());
    colptr.push(0);
    for j in 0..n {
        rowidx.push(j);
        values.push(0.0);
        for &i in pattern.col(j) {
            let mag: f64 = rng.gen_range(0.1..=1.0);
            let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            rowidx.push(i);
            values.push(sign * mag);
        }
        colptr.push(rowidx.len());
    }
    let mut m = SymmetricCsc::from_parts(n, colptr, rowidx, values)
        .expect("pattern columns are sorted, strictly lower and in bounds");
    m.make_diagonally_dominant();
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spd_from_pattern_has_same_structure() {
        let p = lap9(4, 4);
        let m = spd_from_pattern(&p, 42);
        assert_eq!(m.pattern(), p);
    }

    #[test]
    fn spd_from_pattern_is_deterministic() {
        let p = lap9(3, 3);
        assert_eq!(spd_from_pattern(&p, 7), spd_from_pattern(&p, 7));
    }

    #[test]
    fn spd_from_pattern_diagonally_dominant() {
        let p = lap9(5, 5);
        let m = spd_from_pattern(&p, 1);
        // Row sums of absolute off-diagonal values must be < diagonal.
        let n = m.n();
        let mut rowsum = vec![0.0; n];
        for j in 0..n {
            let rows = m.col_rows(j);
            let vals = m.col_values(j);
            for (&i, &v) in rows[1..].iter().zip(&vals[1..]) {
                rowsum[i] += v.abs();
                rowsum[j] += v.abs();
            }
        }
        let d = m.diagonal();
        for j in 0..n {
            assert!(
                d[j] > rowsum[j],
                "row {j}: diag {} <= sum {}",
                d[j],
                rowsum[j]
            );
        }
    }
}
