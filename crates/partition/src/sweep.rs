//! Sweep-based dependency construction — the closed-form front end.
//!
//! The element builder in [`deps`](crate::deps) replays every update and
//! scaling operation of the factorization: `Θ(Σ_k c_k²)` work with a heap
//! allocation per externally-sourced operation. On large grids that makes
//! dependency analysis the pipeline's dominant cost — the inversion §3.3
//! of the paper warns about, where symbolic analysis outweighs the
//! communication study it feeds.
//!
//! The sweep engine computes the *same* ten-category graph from unit-block
//! geometry alone:
//!
//! * For a fixed pair of columns `(k, j)` with `L(j,k)` stored, the update
//!   operations are `L(i,j) -= L(i,k)·L(j,k)` for every stored `i ≥ j` in
//!   column `k`. The owner of `(j,k)` is one fixed unit; the owners of
//!   `(i,k)` and `(i,j)` are **piecewise constant in `i`** — the partition
//!   assigns contiguous row intervals of a column to one unit
//!   ([`Partition::column_ownership`]). Merging the two segmentations and
//!   splitting column `k`'s sorted row list at segment boundaries with
//!   binary searches yields, per merged segment, a `(source, source,
//!   target)` unit triple and an exact operation count — no per-operation
//!   work at all.
//! * Scaling operations are the same sweep with a single source (the
//!   diagonal-owning unit) against the target segmentation of column `j`.
//!
//! Dependency *edges* and category *tallies* both fall out of the segment
//! walk: every operation in a merged segment contributes the identical
//! external-source set, so the *sets* of edges agree with the element
//! oracle exactly and the per-category counts are plain multiplications.
//!
//! A further collapse exploits *fundamental supernodes*: columns of one
//! supernode have identical factor structure below any shared row
//! (`struct(L_{k+1}) = struct(L_k) \ {k+1}`), so consecutive source pairs
//! `(k, j)`, `(k+1, j)` whose `(j, ·)`-owning unit and ownership-
//! segmentation tails also agree produce *verbatim-identical* sweeps —
//! the walk replays the previous pair's category/segment deltas and skips
//! its (all-duplicate) edge pushes.
//!
//! **Parallelism.** Every edge and every categorized operation generated
//! while processing target column `j` lands on units of `j`'s cluster, and
//! unit ids are scan-ordered by cluster — so partitioning the cluster list
//! into contiguous ranges gives worker threads *disjoint* unit-id ranges
//! to fill. Per-thread predecessor lists concatenate in cluster order and
//! category counts merge by integer addition, making the result
//! bit-identical for every thread count (pinned by
//! `tests/deps_equivalence.rs`).

use crate::block::UnitShape;
use crate::deps::{category_of, dependencies, dependencies_traced, record_graph_stats, DepGraph};
use crate::units::{advance, split_at, Partition, Segmentation};
use spfactor_interval::Interval;
use spfactor_symbolic::{RowStructure, SymbolicFactor};
use spfactor_trace::Recorder;

/// Selects how the unit-block dependency graph is built.
///
/// All engines return **bit-identical** [`DepGraph`] values — same
/// predecessor/successor sets, same per-category operation counts —
/// pinned by `tests/deps_equivalence.rs` on every paper matrix and by the
/// `prop_deps_engines_agree` property test on random SPD structures. The
/// choice is purely a speed/observability trade-off:
///
/// | engine | cost | threads |
/// |---|---|---|
/// | `Element` | `Θ(Σ_k c_k²)` operation replay | 1 |
/// | `Sweep` | `Θ(Σ_{(j,k)} segments)` geometry sweep | 1 |
/// | `SweepParallel` | as `Sweep` | `available_parallelism` |
///
/// `Element` is the oracle — the direct enumeration of the paper's §3.3
/// operation set — and stays the pipeline-level default. Use `Sweep` or
/// `SweepParallel` on large problems; `docs/PERFORMANCE.md` has measured
/// speedups.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepsEngine {
    /// Per-operation replay of every update and scaling (the oracle).
    #[default]
    Element,
    /// Sorted-extent sweep over unit geometry, single-threaded.
    Sweep,
    /// The same sweep fanned out over crossbeam scoped threads, one
    /// contiguous range of target clusters per worker.
    SweepParallel,
}

impl DepsEngine {
    /// Stable lowercase name used in metrics and the bench JSON.
    pub fn name(&self) -> &'static str {
        match self {
            DepsEngine::Element => "element",
            DepsEngine::Sweep => "sweep",
            DepsEngine::SweepParallel => "sweep_parallel",
        }
    }
}

/// Builds the dependency graph with the selected engine.
pub fn build_dependencies(
    engine: DepsEngine,
    factor: &SymbolicFactor,
    partition: &Partition,
) -> DepGraph {
    match engine {
        DepsEngine::Element => dependencies(factor, partition),
        DepsEngine::Sweep => sweep_dependencies(factor, partition, 1),
        DepsEngine::SweepParallel => sweep_dependencies(factor, partition, default_threads()),
    }
}

/// [`build_dependencies`] with instrumentation. The element engine emits
/// its historical `partition.deps` span; the sweep engines run under the
/// spans `deps.engine.sweep` / `deps.engine.sweep_parallel` and emit the
/// `deps.engine.columns` / `.pairs` / `.segments` counters and the
/// `deps.engine.threads` gauge (see `docs/METRICS.md`). All engines
/// record the shared `partition.deps.edges` / `.independent_units` gauges
/// and the `partition.deps.category.<n>` counters.
pub fn build_dependencies_traced(
    engine: DepsEngine,
    factor: &SymbolicFactor,
    partition: &Partition,
    recorder: &Recorder,
) -> DepGraph {
    match engine {
        DepsEngine::Element => dependencies_traced(factor, partition, recorder),
        DepsEngine::Sweep | DepsEngine::SweepParallel => {
            let threads = if engine == DepsEngine::Sweep {
                1
            } else {
                default_threads()
            };
            let span = format!("deps.engine.{}", engine.name());
            let (graph, tallies) = recorder.time(&span, || sweep_impl(factor, partition, threads));
            recorder.gauge("deps.engine.threads", threads as f64);
            recorder.incr("deps.engine.columns", tallies.columns);
            recorder.incr("deps.engine.pairs", tallies.pairs);
            recorder.incr("deps.engine.segments", tallies.segments);
            record_graph_stats(&graph, recorder);
            graph
        }
    }
}

/// The sweep construction with an explicit worker-thread count
/// (`1` = serial). Exposed so tests can pin bit-equality across thread
/// counts; [`build_dependencies`] picks the count from the engine.
pub fn sweep_dependencies(
    factor: &SymbolicFactor,
    partition: &Partition,
    nthreads: usize,
) -> DepGraph {
    sweep_impl(factor, partition, nthreads).0
}

/// Worker threads for [`DepsEngine::SweepParallel`].
fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Immutable lookup tables shared by every worker thread.
struct SweepPlan<'a> {
    factor: &'a SymbolicFactor,
    /// Every column's ownership segmentation (ascending, disjoint).
    segs: Segmentation,
    /// Transpose of the strict-lower structure: row `j`'s `(k, pos)`
    /// pairs with `L(j,k)` stored, and the fundamental-supernode id per
    /// column — columns of one supernode have identical factor structure
    /// below any shared row, which lets the walk replay a repeated source
    /// pair instead of re-sweeping it. Built for this plan and dropped
    /// with it rather than cached in the factor: a schedule outlives its
    /// dependency phase, and most are never factored numerically.
    rows: RowStructure,
    /// Shape class per unit (0 = column, 1 = triangle, 2 = rectangle):
    /// classification touches this dense byte table instead of the much
    /// larger `units` array — the segment loop's hottest lookups.
    class: Vec<u8>,
    /// `cat1[s * 3 + t]` — paper category number for one external of
    /// class `s` updating a target of class `t`, `0` = none. Built by
    /// calling [`category_of`] on representative shapes ([`category_of`]
    /// depends only on the shape *variants*, pinned by the equivalence
    /// tests).
    cat1: [u8; 9],
    /// `cat2[(a * 3 + b) * 3 + t]` — same for two distinct externals.
    cat2: [u8; 27],
}

/// Tabulates [`category_of`] over the three shape variants.
fn build_cat_tables() -> ([u8; 9], [u8; 27]) {
    let iv = Interval::new(0, 0);
    let reps = [
        UnitShape::Column { col: 0 },
        UnitShape::Triangle { extent: iv },
        UnitShape::Rectangle { cols: iv, rows: iv },
    ];
    let mut cat1 = [0u8; 9];
    let mut cat2 = [0u8; 27];
    for (a, sa) in reps.iter().enumerate() {
        for (t, st) in reps.iter().enumerate() {
            if let Some(c) = category_of(&[sa], st) {
                cat1[a * 3 + t] = c.number() as u8;
            }
            for (b, sb) in reps.iter().enumerate() {
                if let Some(c) = category_of(&[sa, sb], st) {
                    cat2[(a * 3 + b) * 3 + t] = c.number() as u8;
                }
            }
        }
    }
    (cat1, cat2)
}

impl<'a> SweepPlan<'a> {
    fn new(factor: &'a SymbolicFactor, partition: &'a Partition) -> Self {
        let class = partition
            .units
            .iter()
            .map(|u| match u.shape {
                UnitShape::Column { .. } => 0u8,
                UnitShape::Triangle { .. } => 1,
                UnitShape::Rectangle { .. } => 2,
            })
            .collect();
        let (cat1, cat2) = build_cat_tables();
        SweepPlan {
            factor,
            segs: partition.segmentation(),
            rows: RowStructure::build(factor),
            class,
            cat1,
            cat2,
        }
    }
}

/// A tiny open-addressing `u32` set (linear probing, `u32::MAX` = empty
/// slot). The segment walk proposes the same `(source, target)` edge tens
/// of times on average; membership-checking here keeps the predecessor
/// lists at their final distinct size instead of materializing every
/// proposal — the difference between ~10⁸ list appends and ~10⁷ on
/// LAP200.
#[derive(Clone, Default)]
struct FastSet {
    slots: Vec<u32>,
    len: u32,
}

impl FastSet {
    /// Inserts `x`; returns `true` if it was not present.
    #[inline]
    fn insert(&mut self, x: u32) -> bool {
        if self.slots.is_empty() {
            self.slots.resize(16, u32::MAX);
        } else if (self.len as usize + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = (x.wrapping_mul(0x9E37_79B9) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == u32::MAX {
                self.slots[i] = x;
                self.len += 1;
                return true;
            }
            if slot == x {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![u32::MAX; doubled]);
        let mask = self.slots.len() - 1;
        for x in old.into_iter().filter(|&x| x != u32::MAX) {
            let mut i = (x.wrapping_mul(0x9E37_79B9) as usize) & mask;
            while self.slots[i] != u32::MAX {
                i = (i + 1) & mask;
            }
            self.slots[i] = x;
        }
    }
}

/// Per-thread output: predecessor lists for one contiguous unit-id range
/// plus category tallies and work counters.
struct SweepOut {
    /// First unit id of this thread's range.
    unit_base: u32,
    /// `preds[u - unit_base]` — distinct predecessor pushes in first-seen
    /// order (final sorting happens in [`DepGraph::assemble`]).
    preds: Vec<Vec<u32>>,
    /// `seen[u - unit_base]` — membership sets backing the dedup. Exact:
    /// every edge into unit `u` arises while some column of `u`'s own
    /// cluster is the target, and one thread processes that whole cluster.
    seen: Vec<FastSet>,
    /// The most recently proposed `(target, source)` edge. Runs propose
    /// the run-constant `s_j` edge between every source-segment edge, so
    /// immediate repeats are common; membership only ever grows, so
    /// "same as last attempt" always means "already inserted" — one
    /// register compare instead of a set probe.
    last_key: u64,
    cats: [usize; 10],
    columns: u64,
    pairs: u64,
    segments: u64,
}

impl SweepOut {
    fn new(unit_base: u32, unit_len: usize) -> Self {
        SweepOut {
            unit_base,
            preds: vec![Vec::new(); unit_len],
            seen: vec![FastSet::default(); unit_len],
            last_key: u64::MAX,
            cats: [0; 10],
            columns: 0,
            pairs: 0,
            segments: 0,
        }
    }

    #[inline]
    fn push_edges(&mut self, tgt: u32, ext: &[u32]) {
        let li = (tgt - self.unit_base) as usize;
        for &s in ext {
            let key = ((tgt as u64) << 32) | s as u64;
            if key == self.last_key {
                continue;
            }
            self.last_key = key;
            if self.seen[li].insert(s) {
                self.preds[li].push(s);
            }
        }
    }

    /// One merged segment of `count` scaling operations sourced from the
    /// diagonal-owning unit `src` (`src != tgt` checked by the caller).
    #[inline]
    fn emit_scaling(&mut self, src: u32, tgt: u32, count: usize, plan: &SweepPlan) {
        self.push_edges(tgt, &[src]);
        let c =
            plan.cat1[plan.class[src as usize] as usize * 3 + plan.class[tgt as usize] as usize];
        if c != 0 {
            self.cats[c as usize - 1] += count;
        }
    }
}

/// Sweeps all operations targeting column `j`: the scalings of its
/// strict-lower entries and, for every stored `L(j,k)`, the update tail
/// `rows(k)[pos..]`.
fn process_target_column(plan: &SweepPlan, j: usize, out: &mut SweepOut) {
    out.columns += 1;
    let tsegs = plan.segs.col(j);
    // Scaling ops: the diagonal's unit (the first target segment always
    // contains row j) feeds every other unit holding entries of column j.
    let lower = plan.factor.col(j);
    debug_assert!(tsegs[0].0.contains(j));
    let d_unit = tsegs[0].1;
    let mut ti = 0usize;
    let mut idx = 0usize;
    while idx < lower.len() {
        let i = lower[idx];
        ti = advance(tsegs, ti, i);
        debug_assert!(tsegs[ti].0.contains(i));
        let take = split_at(lower, idx, lower.len(), tsegs[ti].0.hi) - idx;
        if tsegs[ti].1 != d_unit {
            out.emit_scaling(d_unit, tsegs[ti].1, take, plan);
        }
        out.segments += 1;
        idx += take;
    }
    // Update ops, one source column k at a time. The walk is organized
    // as runs over the *target* segmentation: within one run the target
    // unit and the `(j, k)`-owning source unit `s_j` are fixed and only
    // the `(i, k)` owner `s_i` varies, so `s_j`'s edge is pushed once per
    // run and the category index reduces to one table lookup per source
    // segment. The per-segment classification mirrors the element
    // builder's `record` exactly: dedup `{s_i, s_j}`, drop the target,
    // classify the survivors (empty set → the operation is internal).
    // Replay state: when consecutive pairs come from one fundamental
    // supernode, share the source unit of `(j, k)`, and their ownership
    // segmentations agree from row `j` on, the two sweeps are verbatim
    // repeats — the supernode guarantees the row tails below `j` are
    // identical (`struct(L_{k+1}) = struct(L_k) \ {k+1}` and `j > k`).
    // Such a pair replays the previous pair's category/segment deltas and
    // skips its pushes (every proposed edge is already present).
    let mut prev_snode = u32::MAX;
    let mut prev_sj = 0u32;
    let mut prev_tail: &[(Interval, u32)] = &[];
    let mut prev_delta = [0usize; 10];
    let mut prev_segments = 0u64;
    for &(k, pos) in plan.rows.row(j) {
        out.pairs += 1;
        let rows = plan.factor.col(k as usize);
        let ssegs = plan.segs.col(k as usize);
        // The (j, k) source element's unit is fixed for this pair.
        let mut si = ssegs.partition_point(|s| s.0.hi < j);
        debug_assert!(ssegs[si].0.contains(j));
        let s_j = ssegs[si].1;
        let snode = plan.rows.supernode_of(k as usize);
        let tail = &ssegs[si..];
        if snode == prev_snode && s_j == prev_sj && tail == prev_tail {
            for (acc, d) in out.cats.iter_mut().zip(prev_delta) {
                *acc += d;
            }
            out.segments += prev_segments;
            continue;
        }
        let cats_before = out.cats;
        let segments_before = out.segments;
        let cls_sj = plan.class[s_j as usize] as usize;
        let mut ti = 0usize;
        let mut idx = pos as usize;
        while idx < rows.len() {
            let i = rows[idx];
            ti = advance(tsegs, ti, i);
            debug_assert!(tsegs[ti].0.contains(i));
            let (t_iv, tgt) = tsegs[ti];
            let run_end = split_at(rows, idx, rows.len(), t_iv.hi);
            let t = plan.class[tgt as usize] as usize;
            let sj_ext = s_j != tgt;
            if sj_ext {
                out.push_edges(tgt, &[s_j]);
            }
            let cat_sj = plan.cat1[cls_sj * 3 + t];
            let pair_const = cls_sj * 3 + t;
            while idx < run_end {
                let i = rows[idx];
                si = advance(ssegs, si, i);
                debug_assert!(ssegs[si].0.contains(i));
                let take = split_at(rows, idx, run_end, ssegs[si].0.hi) - idx;
                let s_i = ssegs[si].1;
                out.segments += 1;
                if s_i == tgt {
                    // ext = {s_j} (or empty when s_j == tgt too).
                    if sj_ext && cat_sj != 0 {
                        out.cats[cat_sj as usize - 1] += take;
                    }
                } else {
                    out.push_edges(tgt, &[s_i]);
                    let c = if !sj_ext || s_i == s_j {
                        plan.cat1[plan.class[s_i as usize] as usize * 3 + t]
                    } else {
                        plan.cat2[plan.class[s_i as usize] as usize * 9 + pair_const]
                    };
                    if c != 0 {
                        out.cats[c as usize - 1] += take;
                    }
                }
                idx += take;
            }
        }
        prev_snode = snode;
        prev_sj = s_j;
        prev_tail = tail;
        for (d, (now, was)) in prev_delta.iter_mut().zip(out.cats.iter().zip(cats_before)) {
            *d = now - was;
        }
        prev_segments = out.segments - segments_before;
    }
}

/// Aggregated sweep work counters (the `deps.engine.*` metrics).
struct SweepTallies {
    columns: u64,
    pairs: u64,
    segments: u64,
}

/// Splits the cluster list into at most `nthreads` contiguous ranges of
/// near-equal total weight. Deterministic for a given weight vector and
/// thread count; always covers every cluster.
fn cluster_ranges(weights: &[u64], nthreads: usize) -> Vec<(usize, usize)> {
    let nc = weights.len();
    let mut remaining: u64 = weights.iter().sum();
    let mut ranges = Vec::with_capacity(nthreads);
    let mut start = 0usize;
    for t in 0..nthreads {
        if start >= nc {
            break;
        }
        if t + 1 == nthreads {
            ranges.push((start, nc));
            break;
        }
        let target = remaining.div_ceil((nthreads - t) as u64);
        let mut acc = 0u64;
        let mut end = start;
        while end < nc && (end == start || acc < target) {
            acc += weights[end];
            end += 1;
        }
        remaining -= acc;
        ranges.push((start, end));
        start = end;
    }
    ranges
}

fn sweep_impl(
    factor: &SymbolicFactor,
    partition: &Partition,
    nthreads: usize,
) -> (DepGraph, SweepTallies) {
    let nu = partition.num_units();
    let nc = partition.clusters.len();
    let plan = SweepPlan::new(factor, partition);
    // First unit id of each cluster: unit ids are scan-ordered by
    // cluster, so each cluster owns one contiguous id range.
    let mut unit_first = vec![nu; nc + 1];
    for (idx, u) in partition.units.iter().enumerate().rev() {
        unit_first[u.cluster] = idx;
    }
    debug_assert!(unit_first.iter().all(|&f| f <= nu));
    // Balance by per-column sweep cost: one scaling walk plus one update
    // walk per stored row entry, each bounded by the column's entry
    // count.
    let weights: Vec<u64> = partition
        .clusters
        .iter()
        .map(|cl| {
            (cl.cols.lo..=cl.cols.hi)
                .map(|j| 1 + factor.col_count(j) as u64 + plan.rows.row_count(j) as u64)
                .sum()
        })
        .collect();
    let nthreads = nthreads.clamp(1, nc.max(1));
    let ranges = cluster_ranges(&weights, nthreads);

    let run_range = |&(c0, c1): &(usize, usize)| -> SweepOut {
        let base = unit_first[c0];
        let len = unit_first[c1] - base;
        let mut out = SweepOut::new(base as u32, len);
        for cl in &partition.clusters[c0..c1] {
            for j in cl.cols.lo..=cl.cols.hi {
                process_target_column(&plan, j, &mut out);
            }
        }
        out
    };

    let outs: Vec<SweepOut> = if ranges.len() <= 1 {
        ranges.iter().map(run_range).collect()
    } else {
        crossbeam::scope(|s| {
            let run_range = &run_range;
            let handles: Vec<_> = ranges
                .iter()
                .map(|r| s.spawn(move |_| run_range(r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        })
        .expect("sweep scope panicked")
    };

    // Stitch: ranges are cluster-ordered and unit-disjoint, so the
    // per-thread predecessor lists concatenate into the full unit range;
    // tallies merge by addition. Both steps are order-deterministic.
    let mut preds: Vec<Vec<u32>> = Vec::with_capacity(nu);
    let mut cats = [0usize; 10];
    let mut tallies = SweepTallies {
        columns: 0,
        pairs: 0,
        segments: 0,
    };
    for out in outs {
        debug_assert_eq!(preds.len(), out.unit_base as usize);
        preds.extend(out.preds);
        for (acc, c) in cats.iter_mut().zip(out.cats) {
            *acc += c;
        }
        tallies.columns += out.columns;
        tallies.pairs += out.pairs;
        tallies.segments += out.segments;
    }
    // Clusters past the last processed column (none today) would leave a
    // tail of unitless entries; pad defensively so the graph always spans
    // every unit.
    preds.resize(nu, Vec::new());
    (DepGraph::assemble(preds, cats), tallies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionParams;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    #[test]
    fn engine_names_are_stable() {
        assert_eq!(DepsEngine::Element.name(), "element");
        assert_eq!(DepsEngine::Sweep.name(), "sweep");
        assert_eq!(DepsEngine::SweepParallel.name(), "sweep_parallel");
        assert_eq!(DepsEngine::default(), DepsEngine::Element);
    }

    #[test]
    fn cluster_ranges_cover_and_balance() {
        let w = vec![5u64, 1, 1, 1, 8, 1, 1, 2];
        for t in 1..=10 {
            let rs = cluster_ranges(&w, t);
            assert!(rs.len() <= t);
            assert_eq!(rs[0].0, 0);
            assert_eq!(rs.last().unwrap().1, w.len());
            for pair in rs.windows(2) {
                assert_eq!(pair[0].1, pair[1].0, "ranges must tile");
            }
            for &(a, b) in &rs {
                assert!(a < b, "empty range");
            }
        }
    }

    #[test]
    fn sweep_matches_element_on_grids() {
        for (p, grain, width) in [
            (gen::lap9(10, 10), 4usize, 4usize),
            (gen::lap9(10, 10), 25, 4),
            (gen::lap9(12, 12), 4, 2),
            (gen::grid5(8, 8), 4, 4),
            (gen::power_network(60, 12, 3), 4, 4),
        ] {
            let f = factor_of(&p);
            let mut params = PartitionParams::with_grain(grain);
            params.min_cluster_width = width;
            let part = Partition::build(&f, &params);
            let oracle = dependencies(&f, &part);
            for threads in [1usize, 2, 3, 7] {
                let swept = sweep_dependencies(&f, &part, threads);
                assert_eq!(swept, oracle, "grain {grain} width {width} T={threads}");
            }
        }
    }

    #[test]
    fn sweep_matches_element_on_column_partition() {
        let p = gen::lap9(7, 7);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let oracle = dependencies(&f, &part);
        for threads in [1usize, 4] {
            assert_eq!(sweep_dependencies(&f, &part, threads), oracle);
        }
    }

    #[test]
    fn dispatcher_routes_every_engine() {
        let p = gen::lap9(9, 9);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let oracle = build_dependencies(DepsEngine::Element, &f, &part);
        assert_eq!(oracle, dependencies(&f, &part));
        for e in [DepsEngine::Sweep, DepsEngine::SweepParallel] {
            assert_eq!(build_dependencies(e, &f, &part), oracle, "{e:?}");
        }
    }

    #[test]
    fn tallies_count_columns_and_pairs() {
        let p = gen::lap9(8, 8);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let (_, t) = sweep_impl(&f, &part, 1);
        assert_eq!(t.columns, f.n() as u64);
        let nnz: usize = (0..f.n()).map(|j| f.col_count(j)).sum();
        assert_eq!(t.pairs, nnz as u64);
        assert!(t.segments >= t.pairs, "each pair walks >= 1 segment");
    }
}
