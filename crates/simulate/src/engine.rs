//! Fast simulation engines: block-closed-form and multi-threaded drivers.
//!
//! The per-element oracle in the crate root replays every update
//! operation — `O(Σ_k c_k²)` bitset touches — which is exact but far too
//! slow for production-scale matrices. This module computes the *same*
//! [`TrafficReport`] analytically, reasoning at unit-block granularity
//! (the supernodal/block principle of Ng & Peyton and Rothberg & Gupta
//! applied to the paper's simulation method); the [`WorkReport`] is the
//! partition's closed-form unit work summed per processor, as in the
//! oracle.
//!
//! # Why a closed form exists
//!
//! The traffic metric decomposes exactly by source column:
//!
//! * a strict-lower entry `(r, k)` is read **only** by the outer-product
//!   updates of column `k`, so "distinct remote elements fetched" can be
//!   tallied per column with no cross-column deduplication;
//! * a diagonal entry `(j, j)` is read **only** by the scalings of
//!   column `j`.
//!
//! For source column `k` with row set `S = rows(k)`, the update targets
//! form the lower-triangle clique on `S` (the fill lemma guarantees every
//! such `(i, j)` is a factor entry). A unit block with row extent `R` and
//! column extent `C` holds targets iff `S` meets both, and the source rows
//! its processor then reads are `(S∩R) ∪ (S∩C)`.
//! [`Partition::for_each_update_target`] reports exactly those units —
//! the hit-row × hit-column chunk products of every cluster a column of
//! `S` enters, never a unit without a target — with the two pieces of
//! `S`. A processor's read set is a bitmask over the positions of `S`:
//! a piece sets a range of bits, the union over its units is the OR, and
//! the distinct remote elements are the set bits under each other
//! processor's ownership segment of column `k`.
//!
//! # Parallelism and determinism
//!
//! Because the tally is independent per source column, the
//! [`SimulateEngine::BlockParallel`] driver hands dynamic chunks of
//! columns to crossbeam scoped worker threads (the same harness as
//! `spfactor-numeric`'s parallel executor), each accumulating a private
//! `Partial`, and merges them by elementwise addition — associative and
//! commutative over integers, so the reports are bit-identical to the
//! serial engines for every thread count.

use crate::{data_traffic, record_traffic, record_work, work_distribution, work_report};
use crate::{TrafficReport, WorkReport};
use spfactor_interval::Interval;
use spfactor_partition::{Partition, TaggedRun, TargetScratch, UpdateTarget};
use spfactor_sched::Assignment;
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::Current;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Which implementation computes the traffic and work reports.
///
/// All three produce **bit-identical** [`TrafficReport`]/[`WorkReport`]s
/// (pinned by `tests/engine_equivalence.rs`); they differ only in cost:
///
/// | Engine | Complexity | Threads |
/// |---|---|---|
/// | `Element` | `O(Σ_k c_k²)` element touches | 1 |
/// | `Block` | `O(Σ_k (c_k + units holding a target of k))` bit-range ops | 1 |
/// | `BlockParallel` | as `Block` | `available_parallelism` |
///
/// `Element` is the oracle — the direct transcription of the paper's §4
/// method — and stays the pipeline-level default. Use `Block` or
/// `BlockParallel` for large problems; `docs/PERFORMANCE.md` has measured
/// crossover points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimulateEngine {
    /// Per-element replay of every update operation (the oracle).
    #[default]
    Element,
    /// Block-closed-form interval sweep, single-threaded.
    Block,
    /// Block-closed-form sweep fanned out over worker threads.
    BlockParallel,
}

impl SimulateEngine {
    /// Stable lowercase name used in metrics and the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            SimulateEngine::Element => "element",
            SimulateEngine::Block => "block",
            SimulateEngine::BlockParallel => "block_parallel",
        }
    }
}

/// Runs the selected engine, returning the paper's two reports.
///
/// Under a recorder scope the element engine emits its historical
/// `simulate.data_traffic` / `simulate.work_distribution` surface; the
/// block engines run under the spans `simulate.engine.block` /
/// `simulate.engine.block_parallel` and emit the `simulate.engine.*`
/// counters (see `docs/METRICS.md`). All engines record the shared
/// `simulate.traffic.*` / `simulate.work.*` gauges.
pub fn simulate(
    engine: SimulateEngine,
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
) -> (TrafficReport, WorkReport) {
    let (threads, span) = match engine {
        SimulateEngine::Element => {
            return (
                data_traffic(factor, partition, assignment),
                work_distribution(partition, assignment),
            )
        }
        SimulateEngine::Block => (1, "simulate.engine.block"),
        SimulateEngine::BlockParallel => (default_threads(), "simulate.engine.block_parallel"),
    };
    let rec = spfactor_trace::current();
    let (traffic, work) = rec.time(span, || {
        block_reports(factor, partition, assignment, threads, &rec)
    });
    rec.gauge("simulate.engine.threads", threads as f64);
    record_traffic(&rec, &traffic);
    record_work(&rec, &work);
    (traffic, work)
}

/// The block engine with an explicit worker-thread count (`1` = serial),
/// recording nothing. Exposed so tests can pin bit-equality across
/// thread counts; [`simulate`] picks the count from the engine.
pub fn simulate_block(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
    nthreads: usize,
) -> (TrafficReport, WorkReport) {
    block_reports(factor, partition, assignment, nthreads, &Current::default())
}

/// Worker threads for [`SimulateEngine::BlockParallel`].
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Immutable lookup tables shared by every worker thread.
struct Plan<'a> {
    factor: &'a SymbolicFactor,
    partition: &'a Partition,
    /// `owner[entry_id] = unit id`.
    owner: &'a [u32],
    /// `proc_of_unit[unit] = processor`.
    proc_of_unit: &'a [u32],
    nprocs: usize,
}

impl<'a> Plan<'a> {
    fn new(
        factor: &'a SymbolicFactor,
        partition: &'a Partition,
        assignment: &'a Assignment,
    ) -> Self {
        Plan {
            factor,
            partition,
            owner: partition.owner_map(),
            proc_of_unit: &assignment.proc_of_unit,
            nprocs: assignment.nprocs,
        }
    }

    #[inline]
    fn proc_of_entry(&self, eid: usize) -> u32 {
        self.proc_of_unit[self.owner[eid] as usize]
    }
}

/// Per-thread tallies; merged by elementwise addition (deterministic).
struct Partial {
    per_proc: Vec<usize>,
    pair: Vec<usize>,
    columns: u64,
    unit_visits: u64,
    pieces: u64,
}

impl Partial {
    fn new(nprocs: usize) -> Self {
        Partial {
            per_proc: vec![0; nprocs],
            pair: vec![0; nprocs * nprocs],
            columns: 0,
            unit_visits: 0,
            pieces: 0,
        }
    }

    fn absorb(&mut self, other: &Partial) {
        for (a, b) in self.per_proc.iter_mut().zip(&other.per_proc) {
            *a += b;
        }
        for (a, b) in self.pair.iter_mut().zip(&other.pair) {
            *a += b;
        }
        self.columns += other.columns;
        self.unit_visits += other.unit_visits;
        self.pieces += other.pieces;
    }
}

/// Reusable per-thread scratch buffers.
struct Scratch {
    /// Maximal runs of the current source column's row set `S`, each
    /// labelled with `run.lo − (rows of S before the run)`: a row `r` of
    /// a piece labelled `t` is the `(r − t)`-th row of `S`.
    runs: Vec<TaggedRun>,
    /// Ownership segments of the current column: positions in `S`
    /// (inclusive) and the owning processor.
    segs: Vec<(usize, usize, u32)>,
    /// Buffers of the partition's target walk.
    targets: TargetScratch,
    /// Read sets: bit `i` of processor `p`'s words is set when `p` reads
    /// the `i`-th row of `S`. `words` per processor, all clear between
    /// columns.
    read: Vec<u64>,
    words: usize,
    /// Per-processor lowest position read from on by a column unit (its
    /// read set is a suffix of `S`): `usize::MAX` while the processor
    /// reads nothing, `usize::MAX - 1` once it reads but no suffix.
    suffix_from: Vec<usize>,
    /// Processors that read anything this column.
    dirty: Vec<u32>,
    /// Per-processor stamp for diagonal-read deduplication.
    stamp: Vec<usize>,
}

impl Scratch {
    fn new(plan: &Plan<'_>) -> Self {
        let longest = (0..plan.factor.n())
            .map(|k| plan.factor.col_count(k))
            .max()
            .unwrap_or(0);
        let words = longest.div_ceil(64);
        Scratch {
            runs: Vec::new(),
            segs: Vec::new(),
            targets: TargetScratch::default(),
            read: vec![0; words * plan.nprocs],
            words,
            suffix_from: vec![usize::MAX; plan.nprocs],
            dirty: Vec::new(),
            stamp: vec![usize::MAX; plan.nprocs],
        }
    }
}

/// Sets bits `lo..=hi`.
#[inline]
fn set_bits(words: &mut [u64], lo: usize, hi: usize) {
    let (wl, wh) = (lo / 64, hi / 64);
    let first = !0u64 << (lo % 64);
    let last = !0u64 >> (63 - hi % 64);
    if wl == wh {
        words[wl] |= first & last;
    } else {
        words[wl] |= first;
        words[wl + 1..wh].fill(!0);
        words[wh] |= last;
    }
}

/// Number of set bits among `lo..=hi`.
#[inline]
fn count_bits(words: &[u64], lo: usize, hi: usize) -> usize {
    let (wl, wh) = (lo / 64, hi / 64);
    let first = !0u64 << (lo % 64);
    let last = !0u64 >> (63 - hi % 64);
    if wl == wh {
        return (words[wl] & first & last).count_ones() as usize;
    }
    let inner: u32 = words[wl + 1..wh].iter().map(|w| w.count_ones()).sum();
    ((words[wl] & first).count_ones() + inner + (words[wh] & last).count_ones()) as usize
}

/// Processes source column `k`: diagonal traffic for the column's
/// scalings, then the read sets of the update clique over its row set.
fn process_column(plan: &Plan<'_>, k: usize, scratch: &mut Scratch, out: &mut Partial) {
    let rows = plan.factor.col(k);
    out.columns += 1;
    if rows.is_empty() {
        return;
    }
    let np = plan.nprocs;
    // Entry ids are contiguous per column, row-ascending, after the
    // diagonals.
    let base = plan.factor.n() + plan.factor.colptr()[k];
    // Split the scratch borrows so the buffers can be used together.
    let Scratch {
        runs,
        segs,
        targets,
        read,
        words,
        suffix_from,
        dirty,
        stamp,
    } = scratch;
    let words = *words;

    // --- Ownership segments of column k and the maximal runs of its row
    // set, in one pass over the column. ---
    segs.clear();
    runs.clear();
    {
        let mut seg_start = 0;
        let mut run_start = 0;
        let mut cur = plan.proc_of_entry(base);
        for off in 1..rows.len() {
            let p = plan.proc_of_entry(base + off);
            if p != cur {
                segs.push((seg_start, off - 1, cur));
                seg_start = off;
                cur = p;
            }
            if rows[off] != rows[off - 1] + 1 {
                let run = Interval {
                    lo: rows[run_start],
                    hi: rows[off - 1],
                };
                runs.push((run, (run.lo - run_start) as u32));
                run_start = off;
            }
        }
        segs.push((seg_start, rows.len() - 1, cur));
        let run = Interval {
            lo: rows[run_start],
            hi: rows[rows.len() - 1],
        };
        runs.push((run, (run.lo - run_start) as u32));
    }

    // --- Diagonal reads: every processor owning a strict-lower entry of
    // column k fetches (k, k) once. ---
    {
        let q = plan.proc_of_entry(k); // diagonal entry id is k
        for &(_, _, p) in segs.iter() {
            let p = p as usize;
            if p as u32 != q && stamp[p] != k {
                stamp[p] = k;
                out.per_proc[p] += 1;
                out.pair[q as usize * np + p] += 1;
            }
        }
    }

    // --- Update clique: the units owning targets, straight from the
    // partition's chunk tables; each marks, for its processor, the
    // pieces of S inside its row and column extents as read. ---
    let proc_of_unit = plan.proc_of_unit;
    let mut visits = 0u64;
    let mut npieces = 0u64;
    plan.partition
        .for_each_update_target(runs, usize::MAX, targets, |target| {
            visits += 1;
            let (unit, rows, cols): (u32, &[TaggedRun], &[TaggedRun]) = match target {
                UpdateTarget::Column { unit, col, run } => {
                    // Reads the suffix of S from `col`: per processor only
                    // the lowest such column matters.
                    let p = proc_of_unit[unit as usize] as usize;
                    if suffix_from[p] == usize::MAX {
                        dirty.push(p as u32);
                    }
                    suffix_from[p] = suffix_from[p].min(col - runs[run].1 as usize);
                    return;
                }
                UpdateTarget::Triangle { unit, pieces } => (unit, pieces, &[]),
                UpdateTarget::Rectangle { unit, rows, cols } => (unit, rows, cols),
            };
            let p = proc_of_unit[unit as usize] as usize;
            let mine = &mut read[p * words..(p + 1) * words];
            if suffix_from[p] == usize::MAX {
                suffix_from[p] = usize::MAX - 1;
                dirty.push(p as u32);
            }
            for &(piece, offset) in rows.iter().chain(cols) {
                set_bits(mine, piece.lo - offset as usize, piece.hi - offset as usize);
            }
            npieces += (rows.len() + cols.len()) as u64;
        });
    out.unit_visits += visits;
    out.pieces += npieces;

    // --- Per processor: every distinct element read counts one unit of
    // traffic from the processor owning it, unless that is the reader. ---
    for &p in dirty.iter() {
        let p = p as usize;
        let mine = &mut read[p * words..(p + 1) * words];
        let from = std::mem::replace(&mut suffix_from[p], usize::MAX);
        if from < rows.len() {
            set_bits(mine, from, rows.len() - 1);
        }
        for &(lo, hi, q) in segs.iter() {
            let q = q as usize;
            if q != p {
                let c = count_bits(mine, lo, hi);
                out.per_proc[p] += c;
                out.pair[q * np + p] += c;
            }
        }
        mine[..rows.len().div_ceil(64)].fill(0);
    }
    dirty.clear();
}

/// Block-closed-form computation of both reports, fanned out over
/// `nthreads` workers (1 = serial). Bit-identical to the element oracle
/// for every thread count.
fn block_reports(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
    nthreads: usize,
    rec: &Current,
) -> (TrafficReport, WorkReport) {
    let n = factor.n();
    let nprocs = assignment.nprocs;
    let plan = Plan::new(factor, partition, assignment);
    let nthreads = nthreads.clamp(1, n.max(1));

    let total_partial = if nthreads <= 1 || n == 0 {
        let mut scratch = Scratch::new(&plan);
        let mut out = Partial::new(nprocs);
        for k in 0..n {
            process_column(&plan, k, &mut scratch, &mut out);
        }
        out
    } else {
        // Dynamic chunks keep the load balanced (column costs are
        // skewed); partials are summed in thread spawn order, and integer
        // addition commutes, so the result does not depend on the actual
        // interleaving.
        let chunk = (n / (nthreads * 8)).clamp(16, 2048);
        let next = AtomicUsize::new(0);
        let plan_ref = &plan;
        let partials: Vec<Partial> = crossbeam::scope(|s| {
            let handles: Vec<_> = (0..nthreads)
                .map(|_| {
                    let next = &next;
                    s.spawn(move |_| {
                        let mut scratch = Scratch::new(plan_ref);
                        let mut out = Partial::new(nprocs);
                        loop {
                            let start = next.fetch_add(chunk, Ordering::Relaxed);
                            if start >= n {
                                break;
                            }
                            for k in start..(start + chunk).min(n) {
                                process_column(plan_ref, k, &mut scratch, &mut out);
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("simulate worker panicked"))
                .collect()
        })
        .expect("simulate scope panicked");
        let mut total = Partial::new(nprocs);
        for p in &partials {
            total.absorb(p);
        }
        total
    };

    rec.incr("simulate.engine.columns", total_partial.columns);
    rec.incr("simulate.engine.unit_visits", total_partial.unit_visits);
    rec.incr("simulate.engine.interval_pieces", total_partial.pieces);

    let traffic = TrafficReport {
        total: total_partial.per_proc.iter().sum(),
        per_proc: total_partial.per_proc,
        pair_matrix: total_partial.pair,
        nprocs,
    };
    (traffic, work_report(partition, assignment))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering as Ord};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::{block_allocation, wrap_allocation};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ord::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    fn assert_engines_agree(f: &SymbolicFactor, part: &Partition, a: &Assignment) {
        let (te, we) = simulate(SimulateEngine::Element, f, part, a);
        let (tb, wb) = simulate(SimulateEngine::Block, f, part, a);
        assert_eq!(te, tb, "block traffic diverged from element oracle");
        assert_eq!(we, wb, "block work diverged from element oracle");
        let (tp, wp) = simulate_block(f, part, a, 4);
        assert_eq!(te, tp, "parallel traffic diverged");
        assert_eq!(we, wp, "parallel work diverged");
    }

    #[test]
    fn engines_agree_on_block_partition() {
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        for grain in [1, 4, 25] {
            let part = Partition::build(&f, &PartitionParams::with_grain(grain));
            let deps = dependencies(&f, &part);
            for np in [1, 2, 7, 16] {
                let a = block_allocation(&part, &deps, np);
                assert_engines_agree(&f, &part, &a);
            }
        }
    }

    #[test]
    fn engines_agree_on_wrap_partition() {
        let p = gen::lap9(11, 13);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        for np in [1, 3, 8, 32] {
            let a = wrap_allocation(&part, np);
            assert_engines_agree(&f, &part, &a);
        }
    }

    #[test]
    fn engines_agree_on_dense_tail() {
        // Fully dense factor: one big strip cluster exercising triangles
        // and interior rectangles.
        let mut e = Vec::new();
        for a in 0..12usize {
            for b in (a + 1)..12 {
                e.push((b, a));
            }
        }
        let p = SymmetricPattern::from_edges(12, e);
        let f = SymbolicFactor::from_pattern(&p);
        let mut params = PartitionParams::with_grain(4);
        params.min_cluster_width = 2;
        let part = Partition::build(&f, &params);
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 5);
        assert_engines_agree(&f, &part, &a);
    }

    #[test]
    fn engines_agree_with_relaxed_zeros() {
        // relax_zeros admits structural zeros inside "dense" blocks; the
        // closed form must not assume full density.
        let p = gen::grid5(9, 9);
        let f = factor_of(&p);
        for relax in [1, 3] {
            let params = PartitionParams {
                grain_triangle: 4,
                grain_rectangle: 4,
                min_cluster_width: 3,
                relax_zeros: relax,
            };
            let part = Partition::build(&f, &params);
            let deps = dependencies(&f, &part);
            let a = block_allocation(&part, &deps, 6);
            assert_engines_agree(&f, &part, &a);
        }
    }

    #[test]
    fn engines_agree_on_all_paper_matrices() {
        for m in gen::paper::all() {
            let f = factor_of(&m.pattern);
            let part = Partition::build(&f, &PartitionParams::with_grain(4));
            let deps = dependencies(&f, &part);
            let a = block_allocation(&part, &deps, 16);
            assert_engines_agree(&f, &part, &a);
        }
    }

    #[test]
    fn tiny_and_empty_factors() {
        let f = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(0, []));
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 3);
        let (t, w) = simulate(SimulateEngine::BlockParallel, &f, &part, &a);
        assert_eq!(t.total, 0);
        assert_eq!(w.total, 0);

        let f = SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(2, [(1, 0)]));
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 2);
        assert_engines_agree(&f, &part, &a);
    }

    #[test]
    fn thread_count_does_not_change_reports() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 8);
        let (t1, w1) = simulate_block(&f, &part, &a, 1);
        for threads in [2, 3, 5, 13] {
            let (t, w) = simulate_block(&f, &part, &a, threads);
            assert_eq!(t, t1);
            assert_eq!(w, w1);
        }
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(SimulateEngine::Element.name(), "element");
        assert_eq!(SimulateEngine::Block.name(), "block");
        assert_eq!(SimulateEngine::BlockParallel.name(), "block_parallel");
        assert_eq!(SimulateEngine::default(), SimulateEngine::Element);
    }

    #[test]
    fn traced_block_engine_emits_metrics() {
        let p = gen::lap9(8, 8);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 4);
        let rec = std::sync::Arc::new(spfactor_trace::Recorder::new());
        let (t, w) = {
            let _scope = spfactor_trace::scope(&rec);
            simulate(SimulateEngine::Block, &f, &part, &a)
        };
        assert_eq!(rec.counter("simulate.engine.columns"), f.n() as u64);
        assert!(rec.counter("simulate.engine.unit_visits") > 0);
        assert_eq!(
            rec.gauge_value("simulate.traffic.total"),
            Some(t.total as f64)
        );
        assert_eq!(rec.gauge_value("simulate.work.total"), Some(w.total as f64));
        assert_eq!(rec.gauge_value("simulate.engine.threads"), Some(1.0));
        assert!(rec.span_stats("simulate.engine.block").is_some());
        // The block engine is not the element path: none of its spans.
        assert!(rec.span_stats("simulate.work_distribution").is_none());
    }
}
