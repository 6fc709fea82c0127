//! Numerical sparse Cholesky factorization and triangular solves.
//!
//! Steps 3 and 4 of the paper's direct solution process. The partitioning
//! and scheduling study in the paper is purely structural; this crate
//! closes the loop by actually computing `L` with the symbolic structure
//! the partitioner consumes, so the workspace can validate end-to-end
//! that orderings, symbolic factors, and dependency graphs are correct:
//!
//! * [`cholesky`] — sequential left-looking simplicial factorization;
//! * [`supernodal::cholesky_supernodal`] — blocked right-looking
//!   factorization over the same supernodes the partitioner clusters,
//!   demonstrating numerically the dense-block premise of the paper;
//! * [`block_parallel::cholesky_block_parallel`] — executes the **paper's
//!   own schedule** (unit blocks, block dependency graph, processor
//!   assignment) numerically, one thread per simulated processor,
//!   bit-identical to [`cholesky`] — the sharpest possible check that the
//!   dependency analysis is complete (on `Partition::columns` it is the
//!   classic column DAG);
//! * [`mod@unit`] — what one unit block computes, walked straight off the
//!   factor's row structure: the kernel under that executor and under the
//!   message-passing one in `spfactor-mp`;
//! * [`solve`] — forward/backward substitution and a whole-pipeline
//!   [`solve::SpdSolver`] for `Ax = b`;
//! * [`batch`] — amortized entry points solving many right-hand sides
//!   against one factor (the numeric half of the `spfactor-serve` solver
//!   service).

pub mod batch;
pub mod block_parallel;
pub mod factor;
pub mod solve;
pub mod supernodal;
pub mod unit;

pub use batch::{solve_many, solve_many_permuted};
pub use block_parallel::cholesky_block_parallel;
pub use factor::{cholesky, NumericFactor};
pub use solve::SpdSolver;
pub use supernodal::cholesky_supernodal;

/// Errors from the numerical phase.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericError {
    /// A diagonal pivot was zero or negative: the matrix is not positive
    /// definite (column index attached).
    NotPositiveDefinite(usize),
    /// The value matrix does not match the symbolic structure.
    StructureMismatch(String),
}

impl std::fmt::Display for NumericError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericError::NotPositiveDefinite(j) => {
                write!(f, "matrix is not positive definite (pivot {j})")
            }
            NumericError::StructureMismatch(msg) => write!(f, "structure mismatch: {msg}"),
        }
    }
}

impl std::error::Error for NumericError {}
