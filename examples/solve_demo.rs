//! End-to-end numerical solve: builds an SPD system on the LAP30
//! structure, factors it (sequentially, then by executing the paper's
//! unit-block schedule on threads), and solves `Ax = b`, verifying the
//! residual.
//!
//! ```text
//! cargo run --release --example solve_demo
//! ```

use spfactor::numeric::{cholesky_block_parallel, solve, SpdSolver};
use spfactor::partition::dependencies;
use spfactor::sched::block_allocation;
use spfactor::{Ordering, Partition, PartitionParams};

fn main() {
    let m = spfactor::matrix::gen::paper::lap30();
    let a = spfactor::matrix::gen::spd_from_pattern(&m.pattern, 42);
    let n = a.n();
    println!("{}: n = {n}, nnz(A) = {}", m.name, a.nnz_lower());

    // Whole pipeline: MMD ordering, symbolic + numeric factorization.
    let solver = SpdSolver::new(&a, Ordering::paper_default()).expect("SPD by construction");
    println!(
        "factored: nnz(L) = {} (fill-in {})",
        solver.symbolic().nnz_lower(),
        solver.symbolic().fill_in()
    );

    // Manufactured solution: x* = 1..n scaled.
    let x_true: Vec<f64> = (0..n).map(|i| (i as f64 + 1.0) / n as f64).collect();
    let b = a.mul_vec(&x_true);
    let x = solver.solve(&b);
    let err = x
        .iter()
        .zip(&x_true)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!("solve:    max |x - x*| = {err:.3e}");
    println!(
        "residual: max |Ax - b|  = {:.3e}",
        solve::residual_norm(&a, &x, &b)
    );

    // The paper's schedule — unit blocks of grain 25, their dependency
    // graph, the block allocation — executed with one thread per
    // processor must agree bit-for-bit.
    let pa = a.permute(solver.permutation());
    let symbolic = solver.symbolic();
    let partition = Partition::build(symbolic, &PartitionParams::with_grain(25));
    let deps = dependencies(symbolic, &partition);
    for nprocs in [1, 2, 4, 8] {
        let assignment = block_allocation(&partition, &deps, nprocs);
        let lp =
            cholesky_block_parallel(&pa, symbolic, &partition, &deps, &assignment).expect("SPD");
        let same = lp == *solver.factor();
        println!("schedule-driven factorization, {nprocs} processor(s): bit-identical = {same}");
        assert!(same);
    }
}
