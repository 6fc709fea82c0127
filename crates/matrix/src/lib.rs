//! Sparse matrix substrate for the `spfactor` workspace.
//!
//! This crate plays the role that SPARSKIT and the Wisconsin Sparse Matrix
//! Manipulation System play in the paper *Effects of Partitioning and
//! Scheduling Sparse Matrix Factorization on Communication and Load Balance*
//! (Venugopal & Naik, 1991): it provides the sparse-matrix data structures,
//! file-format readers and writers, format conversions, permutation
//! machinery, and test-matrix generators that every other subsystem builds
//! on.
//!
//! # Data model
//!
//! All matrices handled by the workspace are **symmetric** and only the
//! structure (and optionally values) of the **lower triangle** is stored:
//!
//! * [`SymmetricPattern`] — the zero/nonzero structure of the strict lower
//!   triangle in compressed sparse column (CSC) form. The diagonal is
//!   implicit (always structurally nonzero for SPD matrices).
//! * [`Graph`] — the adjacency structure of the full symmetric matrix, used
//!   by the ordering algorithms.
//! * [`SymmetricCsc`] — pattern plus `f64` values for the lower triangle
//!   *including* the diagonal, used by the numerical factorization.
//! * [`Coo`] — coordinate (triplet) staging format for assembly and IO.
//!
//! # Generators
//!
//! The paper evaluates on five Harwell-Boeing matrices. The [`gen`] module
//! reproduces `LAP30` exactly (9-point Laplacian on a 30×30 grid) and
//! provides structure-equivalent generators for the other four (see
//! `DESIGN.md` at the workspace root for the substitution rationale).
//! Genuine Harwell-Boeing and MatrixMarket files can be read via [`io`].

pub mod coo;
pub mod csc;
pub mod error;
pub mod gen;
pub mod graph;
pub mod hash;
// The IO parsers handle untrusted bytes: no unwrap/expect outside tests.
#[cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod io;
pub mod perm;
pub mod plot;
pub mod stats;

pub use coo::Coo;
pub use csc::{SymmetricCsc, SymmetricPattern};
pub use error::MatrixError;
pub use graph::Graph;
pub use hash::Fnv1a;
pub use perm::Permutation;
