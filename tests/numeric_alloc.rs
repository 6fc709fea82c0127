//! A factorization allocates only its values.
//!
//! Every numeric factor shares its symbolic factor's column structure
//! (`colptr`/`rowidx`) instead of copying it, so the heap a factorization
//! adds is the factor's values — one `f64` per entry, `8·(n + nnz_strict)`
//! bytes — plus each kernel's scratch. This binary holds the one test, so
//! the tracking allocator's process-wide peak is the kernels' alone.

use spfactor::matrix::gen;
use spfactor::numeric::{self, NumericFactor};
use spfactor::trace::alloc::{self, TrackingAllocator};
use spfactor::{mp, partition, sched, NetworkModel, Ordering, Partition, PartitionParams};
use spfactor::{SymbolicFactor, SymmetricPattern};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Runs `op` and returns its result with the most the live heap rose
/// above its level at the call.
fn heap_rise<T>(op: impl FnOnce() -> T) -> (T, usize) {
    alloc::reset_peak();
    let before = alloc::current_bytes();
    let out = op();
    (out, alloc::peak_bytes() - before)
}

fn assert_shares_structure(what: &str, l: &NumericFactor, f: &SymbolicFactor) {
    for j in 0..f.n() {
        assert_eq!(
            l.col_rows(j).as_ptr(),
            f.col(j).as_ptr(),
            "{what}: column {j} is a copy of the symbolic structure"
        );
    }
}

fn check(name: &str, pattern: &SymmetricPattern, grain: usize) {
    const P: usize = 2;
    const SLACK: usize = 64 << 10;
    const SEQ_SLACK: usize = 4 << 10;
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let a = gen::spd_from_pattern(&pattern.permute(&perm), 7);
    let f = SymbolicFactor::from_pattern(&a.pattern());
    let part = Partition::build(&f, &PartitionParams::with_grain(grain));
    let deps = partition::dependencies(&f, &part);
    let assign = sched::block_allocation(&part, &deps, P);
    // The row structure is the symbolic factor's and the successor table
    // the dependency graph's, each built once and shared by every kernel
    // below; build them before measuring.
    f.row_structure();
    deps.succs(0);
    let (n, entries, units) = (f.n(), f.num_entries(), part.num_units());
    let values = 8 * entries;

    // Sequential: one four-lane accumulator, four values a row, and no
    // other scratch. The slack stays under 16 B a row, so a scratch that
    // grows by two values a row fails.
    let (seq, rise) = heap_rise(|| numeric::cholesky(&a, &f).expect("SPD"));
    assert!(SEQ_SLACK < 16 * n, "{name}: the slack hides 16 B a row");
    let scratch = 32 * n + SEQ_SLACK;
    assert!(
        rise <= values + scratch,
        "{name} cholesky: heap rose {rise} B, values {values} B + scratch {scratch} B"
    );
    assert_shares_structure("cholesky", &seq, &f);

    // Shared memory: the seeded values are the factor; the unit kernel's
    // entry lists (4 B per entry), per-unit counters, queues and threads.
    let (block, rise) =
        heap_rise(|| numeric::cholesky_block_parallel(&a, &f, &part, &deps, &assign).expect("SPD"));
    let scratch = 4 * entries + 32 * units + SLACK;
    assert!(
        rise <= values + scratch,
        "{name} block-parallel: heap rose {rise} B, values {values} B + scratch {scratch} B"
    );
    assert_eq!(block, seq);
    assert_shares_structure("cholesky_block_parallel", &block, &f);

    // Message passing: A's values seeded, one private store per
    // processor (8 B value + 1 B cached flag per entry), the processor of
    // every entry and the unit kernel's entry lists (4 B each), per-unit
    // state on every processor, and the messages in flight.
    let (report, rise) = heap_rise(|| {
        mp::execute(&a, &f, &part, &deps, &assign, &NetworkModel::free()).expect("SPD")
    });
    let scratch = (8 + 9 * P + 4 + 4) * entries + 16 * P * units + SLACK;
    assert!(
        rise <= values + scratch,
        "{name} mp: heap rose {rise} B, values {values} B + scratch {scratch} B"
    );
    assert_eq!(report.factor, seq);
    assert_shares_structure("mp::execute", &report.factor, &f);
}

#[test]
fn a_factorization_allocates_only_its_values() {
    check("lap9 40²", &gen::lap9(40, 40), 25);
    check("CANN1072", &gen::paper::cann1072().pattern, 4);
}
