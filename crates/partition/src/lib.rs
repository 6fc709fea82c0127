//! Block-based partitioning of the symbolic factor — the paper's primary
//! contribution (§3.1–3.3).
//!
//! Given the structure of the Cholesky factor, this crate
//!
//! 1. identifies **clusters** — single columns or strips of consecutive
//!    columns whose filled structure is a dense diagonal triangle plus
//!    dense off-diagonal rectangles ([`cluster`]);
//! 2. partitions each dense block into **unit blocks** (sub-triangles,
//!    sub-rectangles, whole columns) subject to a minimum *grain size*
//!    ([`units`]);
//! 3. computes the **block-level dependencies** between unit blocks,
//!    classified into the paper's ten categories ([`deps`]), by default
//!    through the geometry sweep over source runs ([`sweep`], [`runs`]).
//!
//! The tunable parameters are exactly the paper's: the grain size (minimum
//! matrix elements per unit block, Tables 2–3 use 4 and 25), the minimum
//! cluster width (Table 4 sweeps 2, 4, 8), and the zero-relaxation used
//! when forming clusters.

pub mod block;
pub mod cluster;
pub mod deps;
pub mod runs;
pub mod sweep;
pub mod units;

pub use block::{Cluster, ClusterKind, UnitBlock, UnitShape};
pub use cluster::identify_clusters;
pub use deps::{dependencies, DepCategory, DepGraph};
pub use runs::{label_rows, source_runs, SourceRun, SourceRuns};
pub use sweep::{build_dependencies, DepsEngine};
pub use units::{Partition, TaggedRun, TargetScratch, UpdateTarget};

/// Tunable parameters of the partitioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PartitionParams {
    /// Minimum number of matrix elements in a unit block, triangular or
    /// rectangular: the paper's *grain size* g. One value, because the
    /// paper cuts both shapes by the one g and every table and caller
    /// sets a single grain.
    pub grain: usize,
    /// Minimum acceptable cluster width: strips narrower than this are
    /// broken into single columns (Table 4; default 4).
    pub min_cluster_width: usize,
    /// Number of explicit zeros tolerated per column when extending a
    /// cluster ("allowing some zeros to be a part of a triangle"; the
    /// tables use 0).
    pub relax_zeros: usize,
}

impl PartitionParams {
    /// Parameters with a single grain size, as in the paper's tables:
    /// `grain`, minimum width 4, no zero relaxation.
    pub fn with_grain(grain: usize) -> Self {
        PartitionParams {
            grain,
            min_cluster_width: 4,
            relax_zeros: 0,
        }
    }
}

impl Default for PartitionParams {
    /// The paper's small-grain configuration (`g = 4`, width 4).
    fn default() -> Self {
        PartitionParams::with_grain(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_constructors() {
        let p = PartitionParams::with_grain(25);
        assert_eq!(p.grain, 25);
        assert_eq!(p.min_cluster_width, 4);
        assert_eq!(p.relax_zeros, 0);
        assert_eq!(PartitionParams::default(), PartitionParams::with_grain(4));
    }
}
