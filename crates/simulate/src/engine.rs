//! The block engine: the oracle's reports in closed form, one source run
//! at a time.
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
//! processor's ownership segment.
//!
//! # One computation per source run
//!
//! The columns are not walked one by one but in the deps sweep's
//! [source runs](spfactor_partition::runs): stretches `ka..=kb` of one
//! fundamental supernode with one ownership segmentation. Column `k` of
//! a run has rows `{k+1..=kb} ∪ S` with `S = rows(kb)`, so, with
//! `copies = kb − ka + 1`:
//!
//! * **across the run's columns** the targets of the `S × S` clique and
//!   the owners of `(i, k)`, `i ∈ S`, are the same for every `k`: each
//!   processor's read set over `S` is computed once, and its counts are
//!   taken `copies` times;
//! * **inside the run** the first segment's unit `own` owns every
//!   `(j, k)` with `k < j ≤ kb` and every diagonal, and a target
//!   `(i, j)`, `i ∈ S`, has the owner of `(i, k)`; so the only remote
//!   reads are `(j, k)` and `(k, k)`: every processor `p ≠ P(own)` owning
//!   a piece of `S` reads `copies·(copies−1)/2` elements and `copies`
//!   diagonals, all from `P(own)`;
//! * **below the cluster**, when a supernode ends its cluster, its runs
//!   sweep only up to the cluster's last column and share the rows `B`
//!   below it, whose clique has the same targets for every run. The read
//!   sets are indexed from the end of the column, so `B` is the same
//!   prefix of every run's bits: the `B × B` sets are built once per
//!   supernode and ORed into each run's own, which is then counted
//!   against that run's owners.
//!
//! Everything runs on the calling thread; the reports are bit-identical
//! to the oracle's (pinned by `tests/engine_equivalence.rs`).

use crate::{data_traffic, record_traffic, record_work, work_distribution, work_report};
use crate::{TrafficReport, WorkReport};
use spfactor_interval::Interval;
use spfactor_partition::{
    label_rows, source_runs, Partition, SourceRun, TaggedRun, TargetScratch, UpdateTarget,
};
use spfactor_sched::Assignment;
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::Current;

/// Which implementation computes the traffic and work reports.
///
/// All engines produce **bit-identical** [`TrafficReport`]/[`WorkReport`]s
/// (pinned by `tests/engine_equivalence.rs`); they differ only in cost:
///
/// | Engine | Cost |
/// |---|---|
/// | `Element` | `O(Σ_k c_k²)` element touches |
/// | `Block` | `O(Σ_runs (pieces + units holding a target))` bit-range ops |
/// | `BlockParallel` | the same engine: a second name for `Block` |
///
/// `Element` is the oracle — the direct transcription of the paper's §4
/// method — and stays the pipeline-level default. Use `Block` for large
/// problems; `docs/PERFORMANCE.md` has measured crossover points. Every
/// engine runs on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimulateEngine {
    /// Per-element replay of every update operation (the oracle).
    #[default]
    Element,
    /// Block-closed-form sweep over source runs.
    Block,
    /// The same sweep as [`Block`](Self::Block), under its own span name.
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
/// block engine runs under the span `simulate.engine.block` (or
/// `simulate.engine.block_parallel`, by the name it was selected under)
/// and emits the `simulate.engine.*` counters and the
/// `simulate.engine.threads` gauge, always 1 (see `docs/METRICS.md`).
/// All engines record the shared `simulate.traffic.*` /
/// `simulate.work.*` gauges.
///
/// Panics if `assignment` does not cover `partition` or names a
/// processor at or above its `nprocs`.
pub fn simulate(
    engine: SimulateEngine,
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
) -> (TrafficReport, WorkReport) {
    let span = match engine {
        SimulateEngine::Element => {
            return (
                data_traffic(factor, partition, assignment),
                work_distribution(partition, assignment),
            )
        }
        SimulateEngine::Block => "simulate.engine.block",
        SimulateEngine::BlockParallel => "simulate.engine.block_parallel",
    };
    crate::check_assignment(partition, assignment);
    let rec = spfactor_trace::current();
    let (traffic, work) = rec.time(span, || block_reports(factor, partition, assignment, &rec));
    rec.gauge("simulate.engine.threads", 1.0);
    record_traffic(&rec, &traffic);
    record_work(&rec, &work);
    (traffic, work)
}

/// Per-processor read sets over the positions of one column's rows,
/// counted **from the end**: bit `i` of processor `p`'s words is set when
/// `p` reads the row `i` places before the last. All clear between uses.
struct ReadSets {
    bits: Vec<u64>,
    /// Words per processor.
    words: usize,
    /// Positions the sets span: the longest row set walked or merged
    /// since the last clear.
    len: usize,
    /// Per processor, how many positions from the end its column units
    /// read (each reads a suffix of the rows); folded into `bits` by
    /// [`close`](Self::close).
    reach: Vec<usize>,
    /// Processors that read anything, each once.
    dirty: Vec<u32>,
    marked: Vec<bool>,
}

impl ReadSets {
    fn new(nprocs: usize, words: usize) -> Self {
        ReadSets {
            bits: vec![0; nprocs * words],
            words,
            len: 0,
            reach: vec![0; nprocs],
            dirty: Vec::new(),
            marked: vec![false; nprocs],
        }
    }

    #[inline]
    fn mark(&mut self, p: usize) {
        if !self.marked[p] {
            self.marked[p] = true;
            self.dirty.push(p as u32);
        }
    }

    /// Processor `p`'s words, marking it dirty.
    #[inline]
    fn of(&mut self, p: usize) -> &mut [u64] {
        self.mark(p);
        &mut self.bits[p * self.words..(p + 1) * self.words]
    }

    /// Folds the column units' suffix reads into the bits.
    fn close(&mut self) {
        for &p in &self.dirty {
            let p = p as usize;
            let reach = std::mem::take(&mut self.reach[p]);
            if reach > 0 {
                set_bits(&mut self.bits[p * self.words..], 0, reach - 1);
            }
        }
    }

    /// ORs `other`'s sets into these.
    fn merge(&mut self, other: &ReadSets) {
        self.len = self.len.max(other.len);
        let used = other.len.div_ceil(64);
        for &p in &other.dirty {
            let p = p as usize;
            let from = &other.bits[p * other.words..][..used];
            for (a, b) in self.of(p).iter_mut().zip(from) {
                *a |= b;
            }
        }
    }

    /// Clears the sets.
    fn clear(&mut self) {
        let used = std::mem::take(&mut self.len).div_ceil(64);
        for &p in &self.dirty {
            let p = p as usize;
            self.bits[p * self.words..][..used].fill(0);
            self.marked[p] = false;
        }
        self.dirty.clear();
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

/// Appends the maximal runs of consecutive rows of the ascending `rows`
/// to `out`, each labelled `run.lo − (rows before the run)`: row `r` of a
/// run labelled `t` is `rows[r − t]`.
fn tag_runs(rows: &[usize], out: &mut Vec<TaggedRun>) {
    out.clear();
    let mut start = 0;
    for end in 1..=rows.len() {
        if end == rows.len() || rows[end] != rows[end - 1] + 1 {
            let run = Interval {
                lo: rows[start],
                hi: rows[end - 1],
            };
            out.push((run, (run.lo - start) as u32));
            start = end;
        }
    }
}

/// The unit-target walk and what it reported.
struct Walker<'a> {
    partition: &'a Partition,
    proc_of_unit: &'a [u32],
    targets: TargetScratch,
    /// Units reported, and the pieces they read.
    unit_visits: u64,
    pieces: u64,
}

impl Walker<'_> {
    /// Marks in `sets`, for the processor of every unit holding an update
    /// target in a column up to `last_col` of a source column with rows
    /// `runs` (labelled as by [`tag_runs`]), the rows its updates read.
    fn walk(&mut self, runs: &[TaggedRun], last_col: usize, sets: &mut ReadSets) {
        let Some(&(last_run, t)) = runs.last() else {
            return;
        };
        // A row `r` labelled `t` is `last − (r − t)` places from the end.
        let last = last_run.hi - t as usize;
        sets.len = sets.len.max(last + 1);
        let rev = |r: usize, t: u32| last + t as usize - r;
        let proc_of_unit = self.proc_of_unit;
        let (mut visits, mut npieces) = (0, 0);
        self.partition
            .for_each_update_target(runs, last_col, &mut self.targets, |target| {
                visits += 1;
                let (unit, rows, cols): (u32, &[TaggedRun], &[TaggedRun]) = match target {
                    UpdateTarget::Column { unit, col, run } => {
                        // Reads the rows from `col` on: per processor only
                        // the lowest such column matters.
                        let p = proc_of_unit[unit as usize] as usize;
                        sets.mark(p);
                        sets.reach[p] = sets.reach[p].max(rev(col, runs[run].1) + 1);
                        return;
                    }
                    UpdateTarget::Triangle { unit, pieces } => (unit, pieces, &[]),
                    UpdateTarget::Rectangle { unit, rows, cols } => (unit, rows, cols),
                };
                let mine = sets.of(proc_of_unit[unit as usize] as usize);
                for &(piece, t) in rows {
                    set_bits(mine, rev(piece.hi, t), rev(piece.lo, t));
                }
                for &(piece, t) in cols {
                    set_bits(mine, rev(piece.hi, t), rev(piece.lo, t));
                }
                npieces += (rows.len() + cols.len()) as u64;
            });
        self.unit_visits += visits;
        self.pieces += npieces;
        sets.close();
    }
}

/// The block engine's state: the geometry it walks, scratch and tallies.
struct Engine<'a> {
    factor: &'a SymbolicFactor,
    proc_of_unit: &'a [u32],
    nprocs: usize,
    walker: Walker<'a>,
    /// The current run's rows: cut at its segments (labelled with the
    /// segment), and as maximal runs (labelled as by [`tag_runs`]).
    pieces: Vec<TaggedRun>,
    runs: Vec<TaggedRun>,
    /// The current run's owners by processor: from-end position ranges
    /// `lo..=hi` of its rows and their processor.
    owners: Vec<(usize, usize, u32)>,
    /// The current run's read sets.
    read: ReadSets,
    /// The read sets of the clique below the cluster whose last column is
    /// `below_of` (`usize::MAX`: none yet).
    below: ReadSets,
    below_of: usize,
    /// Per-processor stamp: the last run it was counted a reader in.
    stamp: Vec<usize>,
    per_proc: Vec<usize>,
    pair: Vec<usize>,
}

impl<'a> Engine<'a> {
    fn new(
        factor: &'a SymbolicFactor,
        partition: &'a Partition,
        assignment: &'a Assignment,
    ) -> Self {
        let longest = (0..factor.n()).map(|k| factor.col_count(k)).max();
        let words = longest.unwrap_or(0).div_ceil(64);
        let nprocs = assignment.nprocs;
        Engine {
            factor,
            proc_of_unit: &assignment.proc_of_unit,
            nprocs,
            walker: Walker {
                partition,
                proc_of_unit: &assignment.proc_of_unit,
                targets: TargetScratch::default(),
                unit_visits: 0,
                pieces: 0,
            },
            pieces: Vec::new(),
            runs: Vec::new(),
            owners: Vec::new(),
            read: ReadSets::new(nprocs, words),
            below: ReadSets::new(nprocs, words),
            below_of: usize::MAX,
            stamp: vec![usize::MAX; nprocs],
            per_proc: vec![0; nprocs],
            pair: vec![0; nprocs * nprocs],
        }
    }

    /// Counts `count` elements fetched by `p` from `q`.
    #[inline]
    fn fetch(&mut self, q: usize, p: usize, count: usize) {
        self.per_proc[p] += count;
        self.pair[q * self.nprocs + p] += count;
    }

    /// Tallies every read sourced from the columns of `run`, the `idx`-th
    /// (see the module docs).
    fn sweep_run(&mut self, idx: usize, run: &SourceRun) {
        // The clique below the run's cluster, once per supernode: the rows
        // `B` of its last column, to any column.
        if run.last_col != usize::MAX && self.below_of != run.last_col {
            self.below_of = run.last_col;
            self.below.clear();
            tag_runs(self.factor.col(run.last_col), &mut self.runs);
            self.walker.walk(&self.runs, usize::MAX, &mut self.below);
        }
        let kb = run.cols.end - 1;
        let copies = run.cols.len();
        let rows = self.factor.col(kb);
        if rows.is_empty() {
            return;
        }
        let segs = run.segs;
        let own = self.proc_of_unit[segs[0].1 as usize] as usize;
        let last = rows.len() - 1;

        // The rows as maximal runs, and their owners by processor.
        label_rows(rows, segs, &mut self.pieces);
        self.runs.clear();
        self.owners.clear();
        let mut pos = 0;
        for &(piece, seg) in &self.pieces {
            let q = self.proc_of_unit[segs[seg as usize].1 as usize];
            let (lo, hi) = (last - (pos + piece.len() - 1), last - pos);
            match self.owners.last_mut() {
                Some((end, _, p)) if *p == q => *end = lo,
                _ => self.owners.push((lo, hi, q)),
            }
            match self.runs.last_mut() {
                Some((run, _)) if run.hi + 1 == piece.lo => run.hi = piece.hi,
                _ => self.runs.push((piece, (piece.lo - pos) as u32)),
            }
            pos += piece.len();
        }

        // Inside the run: every other processor owning rows reads the
        // copies·(copies+1)/2 entries (j, k), k ≤ j ≤ kb, from `own`.
        for o in 0..self.owners.len() {
            let p = self.owners[o].2 as usize;
            if p != own && self.stamp[p] != idx {
                self.stamp[p] = idx;
                self.fetch(own, p, copies * (copies + 1) / 2);
            }
        }

        // The clique of the rows up to the run's last column, and the
        // shared one below it.
        self.walker.walk(&self.runs, run.last_col, &mut self.read);
        if run.last_col != usize::MAX {
            self.read.merge(&self.below);
        }

        // Per processor: every distinct element read counts one unit of
        // traffic from the processor owning it, unless that is the
        // reader — once per column of the run.
        for d in 0..self.read.dirty.len() {
            let p = self.read.dirty[d] as usize;
            let words = &self.read.bits[p * self.read.words..][..self.read.words];
            for &(lo, hi, q) in &self.owners {
                let q = q as usize;
                let c = if q == p { 0 } else { count_bits(words, lo, hi) };
                if c > 0 {
                    self.per_proc[p] += copies * c;
                    self.pair[q * self.nprocs + p] += copies * c;
                }
            }
        }
        self.read.clear();
    }
}

/// Block-closed-form computation of both reports, bit-identical to the
/// element oracle.
fn block_reports(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
    rec: &Current,
) -> (TrafficReport, WorkReport) {
    let mut engine = Engine::new(factor, partition, assignment);
    let mut runs = source_runs(factor, partition);
    let mut idx = 0;
    while let Some(run) = runs.next_run() {
        engine.sweep_run(idx, &run);
        idx += 1;
    }
    rec.incr("simulate.engine.columns", factor.n() as u64);
    rec.incr("simulate.engine.unit_visits", engine.walker.unit_visits);
    rec.incr("simulate.engine.interval_pieces", engine.walker.pieces);

    let traffic = TrafficReport {
        total: engine.per_proc.iter().sum(),
        per_proc: engine.per_proc,
        pair_matrix: engine.pair,
        nprocs: assignment.nprocs,
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
        let (tp, wp) = simulate(SimulateEngine::BlockParallel, f, part, a);
        assert_eq!(te, tp, "block_parallel traffic diverged");
        assert_eq!(we, wp, "block_parallel work diverged");
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
                grain: 4,
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

    /// There is no thread count any more: `BlockParallel` is `Block` under
    /// another span name, and both are the oracle.
    #[test]
    fn thread_count_does_not_change_reports() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 8);
        let element = simulate(SimulateEngine::Element, &f, &part, &a);
        let block = simulate(SimulateEngine::Block, &f, &part, &a);
        let parallel = simulate(SimulateEngine::BlockParallel, &f, &part, &a);
        assert_eq!(block, element);
        assert_eq!(parallel, block);
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
