//! Symbolic Cholesky factorization.
//!
//! Step 2 of the paper's four-step direct solution process: given the
//! (already ordered) structure of A, determine the zero/nonzero structure
//! of the Cholesky factor L. The partitioner (crate `spfactor-partition`)
//! consumes this structure — "the partitioning starts with the zero-nonzero
//! structure of the filled sparse matrix obtained after the symbolic
//! factorization phase" (§3).
//!
//! * [`SymbolicFactor`] — the factor structure, its elimination tree, fill
//!   and operation counts;
//! * [`supernode`] — fundamental and relaxed supernode detection, the basis
//!   of the paper's *cluster* identification;
//! * [`RowStructure`] — the transpose of the factor structure, built once
//!   per factor and read by the numeric kernel and the sweep dependency
//!   engine alike.

pub mod factor;
pub mod ops;
pub mod rows;
pub mod supernode;

pub use factor::{col_counts, SymbolicFactor};
pub use ops::{for_each_scaling, for_each_update, UpdateOp};
pub use rows::RowStructure;
pub use supernode::{fundamental_supernode_at, fundamental_supernodes, relaxed_supernodes};
