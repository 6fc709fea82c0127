//! A partition keeps its geometry, not a map of every entry.
//!
//! Who owns a factor entry follows from the cluster layout alone — a
//! strip's diagonal chunks and below-rectangle grids, one unit for a
//! single column — so the heap a partition keeps is its units, its
//! clusters with their rectangle row extents, one layout per cluster
//! (16 B; a strip's tables boxed behind it) and a cluster id per column:
//! nothing per factor entry. This binary holds the one test, so the
//! tracking allocator's process-wide counts are the partition's alone.

use spfactor::matrix::gen;
use spfactor::partition::{Cluster, ClusterKind, UnitBlock};
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{Ordering, Partition, PartitionParams, Recorder, Scheme};
use spfactor::{SymbolicFactor, SymmetricPattern};
use std::mem::size_of;
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Runs `op` and returns its result with the live heap it left behind.
fn heap_kept<T>(op: impl FnOnce() -> T) -> (T, usize) {
    let before = alloc::current_bytes();
    let out = op();
    (out, alloc::current_bytes().saturating_sub(before))
}

/// The most a partition of this shape may keep, from its counts alone:
/// per unit its block and at most two chunk extents (a strip's diagonal
/// chunk, or a rectangle grid's row or column chunk: `pr + pc <= pr·pc +
/// 1`), per cluster its record and a 16 B layout, per strip a boxed table
/// of 56 B, per below-rectangle its row extent, one more chunk extent and
/// its 56 B grid record, and 4 B per column.
fn geometry_bound(part: &Partition) -> usize {
    const EXTENT: usize = 16;
    let (units, clusters, cols) = (part.num_units(), part.clusters.len(), part.num_cols());
    let (mut strips, mut rects) = (0, 0);
    for c in &part.clusters {
        if let ClusterKind::Strip { rect_rows } = &c.kind {
            strips += 1;
            rects += rect_rows.len();
        }
    }
    units * (size_of::<UnitBlock>() + 2 * EXTENT)
        + clusters * (size_of::<Cluster>() + 16)
        + strips * 56
        + rects * (2 * EXTENT + 56)
        + cols * 4
}

fn check(name: &str, pattern: &SymmetricPattern, grain: usize) {
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
    let params = PartitionParams::with_grain(grain);
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let what = format!("{name} {scheme:?}");
        // The gauges, from a recorded build.
        let rec = Arc::new(Recorder::new());
        let recorded = {
            let _scope = spfactor::trace::scope(&rec);
            scheme.partition(&f, &params)
        };
        let gauge = |name: &str| {
            rec.gauge_value(name)
                .unwrap_or_else(|| panic!("{what}: {name} is recorded")) as usize
        };
        assert_eq!(
            gauge("heap.partition.kept.bytes"),
            recorded.heap_bytes(),
            "{what}"
        );
        let segmentation = gauge("heap.partition.segmentation.bytes");
        match scheme {
            Scheme::Block => assert!(segmentation > 0, "{what}: the tally walks a table"),
            Scheme::Wrap => assert_eq!(segmentation, 0, "{what}: no tally, no table"),
        }
        drop(recorded);

        // The measured build, without a recorder's own heap.
        let (part, kept) = heap_kept(|| scheme.partition(&f, &params));
        assert_eq!(
            kept,
            part.heap_bytes(),
            "{what}: the partition holds {kept} B, heap_bytes() says {} B",
            part.heap_bytes()
        );
        let bound = geometry_bound(&part);
        let entries = f.num_entries();
        assert!(
            kept <= bound,
            "{what}: the partition keeps {kept} B, its geometry {bound} B ({entries} entries)"
        );
        println!(
            "{what}: keeps {kept} B (bound {bound} B) for {} units, {} clusters, {entries} entries",
            part.num_units(),
            part.clusters.len()
        );
    }
}

#[test]
fn a_partition_keeps_its_geometry() {
    check("lap9 40²", &gen::lap9(40, 40), 25);
    check("CANN1072", &gen::paper::cann1072().pattern, 4);
}
