//! The block simulator holds what it reads.
//!
//! `SimulateEngine::Block` walks the source runs one at a time, deriving
//! a column's ownership segmentation when the walk reaches it, so the
//! heap it adds is the two reports, the per-processor read sets and one
//! column's scratch — never a table of every column's segments or of
//! every run. This binary holds the one test, so the tracking
//! allocator's process-wide peak is the simulation's alone.

use spfactor::matrix::gen;
use spfactor::partition::build_dependencies;
use spfactor::sched::block_allocation;
use spfactor::simulate::simulate;
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{DepsEngine, Ordering, Partition, PartitionParams, SimulateEngine};
use spfactor::{SymbolicFactor, SymmetricPattern};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

fn check(name: &str, pattern: &SymmetricPattern, grain: usize) {
    const NPROCS: usize = 16;
    const SLACK: usize = 16 << 10;
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
    let part = Partition::build(&f, &PartitionParams::with_grain(grain));
    let deps = build_dependencies(DepsEngine::Sweep, &f, &part);
    let a = block_allocation(&part, &deps, NPROCS);
    let longest = (0..f.n()).map(|k| f.col_count(k)).max().unwrap_or(0);
    let words = longest.div_ceil(64);
    for engine in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
        alloc::reset_peak();
        let before = alloc::current_bytes();
        let reports = simulate(engine, &f, &part, &a);
        let rise = alloc::peak_bytes() - before;
        assert!(reports.0.total > 0, "{name}: a block mapping moves data");

        // The reports (the pair matrix and three per-processor vectors);
        // two sets of read bits (the run's and the clique below its
        // cluster's) with their per-processor reach, marks and dirty
        // lists, and a stamp per processor; and the scratch of one column
        // — its pieces, maximal runs and owners, the update-target walk's
        // chunk hits and two columns' segmentations — within 512 B a row.
        let reports = 8 * NPROCS * NPROCS + 24 * NPROCS;
        let sets = 2 * (8 * NPROCS * words + 13 * NPROCS) + 8 * NPROCS;
        let column = 512 * (longest + 1);
        let bound = reports + sets + column + SLACK;
        assert!(
            rise <= bound,
            "{name} {engine:?}: heap rose {rise} B, bound {bound} B \
             (reports {reports} B, read sets {sets} B, one column {column} B)"
        );
    }
}

#[test]
fn the_block_simulator_holds_no_partition_sized_table() {
    check("lap9 70²", &gen::lap9(70, 70), 25);
    check("CANN1072", &gen::paper::cann1072().pattern, 4);
}
