//! The dependency graph keeps predecessors only and is built cluster by
//! cluster.
//!
//! The sweep lays each cluster's predecessor lists out as soon as it has
//! passed the cluster's last column, so the heap a build adds is the
//! final predecessor table — `4·edges + 8·(units + 1)` bytes — plus the
//! sweep's scratch. The graph it returns holds that table and the
//! category counts, nothing else: the successor table is derived on the
//! first `succs` call. This binary holds the one test, so the tracking
//! allocator's process-wide peak is the build's alone.

use spfactor::matrix::gen;
use spfactor::partition::build_dependencies;
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{DepsEngine, Ordering, Partition, PartitionParams};
use spfactor::{SymbolicFactor, SymmetricPattern};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Runs `op` and returns its result with the most the live heap rose
/// above its level at the call, and how much of that rise it kept.
fn heap_rise<T>(op: impl FnOnce() -> T) -> (T, usize, usize) {
    alloc::reset_peak();
    let before = alloc::current_bytes();
    let out = op();
    let kept = alloc::current_bytes().saturating_sub(before);
    (out, alloc::peak_bytes() - before, kept)
}

fn check(name: &str, pattern: &SymmetricPattern, grain: usize) {
    const SLACK: usize = 64 << 10;
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
    let part = Partition::build(&f, &PartitionParams::with_grain(grain));
    for engine in [DepsEngine::Sweep, DepsEngine::SweepParallel] {
        let (deps, rise, kept) = heap_rise(|| build_dependencies(engine, &f, &part));
        let (edges, units) = (deps.num_edges(), deps.num_units());
        let csr = 4 * edges + 8 * (units + 1);

        // The build: the predecessor table, which may hold up to twice
        // its final edges while it grows (4·edges); a list header per
        // unit (24 B) and its shape class; the raw lists of the clusters
        // not yet passed and the column segmentation the sweep walks,
        // within 8 B per factor entry.
        let scratch = 4 * edges + 32 * units + 8 * f.num_entries() + SLACK;
        assert!(
            rise <= csr + scratch,
            "{name} {engine:?}: heap rose {rise} B, table {csr} B + scratch {scratch} B"
        );

        // The graph keeps the predecessor table, trimmed to its size, and
        // no successor table: the first `succs` call builds one.
        assert!(
            kept <= csr + SLACK,
            "{name} {engine:?}: the graph holds {kept} B, its table {csr} B"
        );
        let (_, rise, _) = heap_rise(|| deps.derive_succs());
        assert!(
            rise >= 4 * edges,
            "{name} {engine:?}: deriving the successors added {rise} B, \
             less than their {} B ids: the build kept a table",
            4 * edges
        );
        let bound = 4 * edges + 16 * (units + 1) + SLACK;
        assert!(
            rise <= bound,
            "{name} {engine:?}: deriving the successors added {rise} B, bound {bound} B"
        );
        let (_, again, _) = heap_rise(|| deps.succs(0).len());
        assert_eq!(
            again, 0,
            "{name} {engine:?}: the successor table is derived once"
        );
    }
}

#[test]
fn the_dependency_graph_keeps_predecessors_only() {
    check("lap9 70²", &gen::lap9(70, 70), 25);
    check("CANN1072", &gen::paper::cann1072().pattern, 4);
}
