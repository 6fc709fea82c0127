//! The dependency graph keeps exactly its edges and is built cluster by
//! cluster.
//!
//! The sweep lays each cluster's predecessor lists out as soon as it has
//! passed the cluster's last column, the lists of the clusters passed
//! together in one allocation of exactly their length, so the heap a
//! build adds is the final lists — 4 B an id, 8 B a unit where its list
//! starts and 16 B a batch — plus the raw lists of the clusters not yet
//! passed and the sweep's per-unit scratch: no table the size of the
//! factor, and no growth slack. The graph it returns holds the
//! lists and the category counts, nothing else: the successor table is
//! derived on the first `succs` call. This binary holds the one test, so
//! the tracking allocator's process-wide peak is the build's alone.

use spfactor::matrix::gen;
use spfactor::partition::build_dependencies;
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{DepsEngine, Ordering, Partition, PartitionParams, Recorder};
use spfactor::{SymbolicFactor, SymmetricPattern};
use std::sync::Arc;

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
        // The most the raw lists not yet laid out held, as the build
        // reports it; the build is deterministic, so the measured one
        // below (without a recorder's own heap) holds as much.
        let rec = Arc::new(Recorder::new());
        {
            let _scope = spfactor::trace::scope(&rec);
            build_dependencies(engine, &f, &part);
        }
        let gauge = |name: &str| {
            rec.gauge_value(name)
                .unwrap_or_else(|| panic!("{name} is recorded")) as usize
        };
        let pending = gauge("heap.deps.pending.bytes");

        let (deps, rise, kept) = heap_rise(|| build_dependencies(engine, &f, &part));
        let (edges, units) = (deps.num_edges(), deps.num_units());
        let lists = deps.pred_bytes();

        // The graph keeps its lists, exactly sized — the ids, where each
        // unit's list starts, and a header for each batch of clusters laid
        // out together, at most one a cluster — and no successor table:
        // the first `succs` call builds one.
        assert_eq!(
            kept, lists,
            "{name} {engine:?}: the graph holds {kept} B, its lists {lists} B"
        );
        let batches = (lists - 4 * edges - 8 * (units + 1)) / 16;
        assert_eq!(lists, 4 * edges + 8 * (units + 1) + 16 * batches);
        assert!(
            (1..=part.clusters.len()).contains(&batches),
            "{name} {engine:?}: {batches} batches for {} clusters",
            part.clusters.len()
        );
        assert_eq!(gauge("heap.deps.preds.bytes"), lists, "{name} {engine:?}");

        // The build: the final lists, the raw lists of the clusters not
        // yet passed — never a second copy of the graph — and per unit a
        // raw list's header (24 B) and a shape class (1 B).
        assert!(
            pending > 0 && pending <= 4 * edges,
            "{name} {engine:?}: the pending lists held {pending} B at most, \
             the graph's ids {} B",
            4 * edges
        );
        let bound = lists + pending + 25 * units + SLACK;
        assert!(
            rise <= bound,
            "{name} {engine:?}: heap rose {rise} B, bound {bound} B \
             (lists {lists} B, pending {pending} B)"
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
