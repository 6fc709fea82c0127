//! A symbolic factor keeps 4 B a row index.
//!
//! Row indices are below `n`, which fits `u32`, so the factor stores them
//! as `u32`; only the column offsets, which count entries, are `usize`.
//! What `SymbolicFactor::from_pattern` leaves on the heap is that column
//! structure, the elimination tree and a few fixed handle headers — and
//! the `heap.symbolic.kept.bytes` gauge says exactly how much. This
//! binary holds the one test, so the tracking allocator's process-wide
//! counts are the factor's alone.

use spfactor::matrix::gen;
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{Ordering, Recorder, SymbolicFactor, SymmetricPattern};
use std::sync::Arc;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// The reference counts and alignment padding of the factor's three
/// shared allocations (`colptr`, `rowidx` and the empty row-structure
/// cell), with room to spare; an 8 B row index would add 4 B per entry.
const HANDLES: usize = 256;

fn check(name: &str, pattern: &SymmetricPattern) {
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let permuted = pattern.permute(&perm);

    // The gauge, from a recorded build.
    let rec = Arc::new(Recorder::new());
    let recorded = {
        let _scope = spfactor::trace::scope(&rec);
        SymbolicFactor::from_pattern(&permuted)
    };
    let gauge = rec
        .gauge_value("heap.symbolic.kept.bytes")
        .unwrap_or_else(|| panic!("{name}: heap.symbolic.kept.bytes is recorded"))
        as usize;
    assert_eq!(gauge, recorded.heap_bytes(), "{name}");
    drop(recorded);

    // The measured build, without a recorder's own heap.
    let before = alloc::current_bytes();
    let f = SymbolicFactor::from_pattern(&permuted);
    let kept = alloc::current_bytes().saturating_sub(before);
    assert_eq!(
        kept, gauge,
        "{name}: the factor holds {kept} B, the gauge says {gauge} B"
    );

    let (n, entries) = (f.n(), f.nnz_strict_lower());
    let bound = 4 * entries + 8 * (n + 1) + f.etree().heap_bytes() + HANDLES;
    assert!(
        kept <= bound,
        "{name}: the factor keeps {kept} B, 4 B a row index allows {bound} B \
         (n = {n}, {entries} strict-lower entries)"
    );
    println!(
        "{name}: keeps {kept} B (bound {bound} B) for n = {n}, {entries} strict-lower entries"
    );
}

#[test]
fn a_factor_keeps_four_bytes_a_row_index() {
    check("lap9 40²", &gen::lap9(40, 40));
    check("CANN1072", &gen::paper::cann1072().pattern);
}
