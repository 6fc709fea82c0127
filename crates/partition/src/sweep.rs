//! Sweep-based dependency construction — the closed-form front end.
//!
//! The element builder in [`deps`](crate::deps) replays every update and
//! scaling operation of the factorization: `Θ(Σ_k c_k²)` work with a heap
//! allocation per externally-sourced operation. The sweep engine computes
//! the *same* ten-category graph from unit-block geometry alone, one
//! **source run** at a time.
//!
//! A source run `ka..=kb` ([`runs`](crate::runs)) is a stretch of one
//! fundamental supernode with one ownership segmentation. Its columns
//! store the same rows `S` below `kb`, owned alike, so everything they do
//! to the columns right of the run is one computation taken
//! `kb − ka + 1` times:
//!
//! * `S` is cut into **pieces** of consecutive rows with one owner (the
//!   run's segmentation against the gaps of `S`), each labelled with the
//!   segment it lies in;
//! * the update targets of a column with rows `S` are the clique
//!   `{(i, j) : i, j ∈ S, i ≥ j}`, and
//!   [`Partition::for_each_update_target`] reports every unit holding
//!   any of them, with the pieces inside its row and column extents —
//!   the owners of `(i, k)` and `(j, k)`. A rectangle's operations are
//!   `|row piece| · |column piece|` per pair of pieces, a triangle's and a
//!   column's the pairs `i ≥ j`; each count lands in one category;
//! * what the run does to itself is closed-form: for `k < j` both in the
//!   run, `(i, k)` and the target `(i, j)` have the same owner, so the
//!   only external source is the owner of `(j, k)` — the run's first
//!   segment — feeding every other owner down the column, and the
//!   scalings are that same shape.
//!
//! One level up, the runs of a supernode that ends its cluster share the
//! rows `B` below the cluster, and own them through the same trailing
//! segments (the row chunks of the below-rectangles; a single column's
//! one segment): two rows have one owner in one run iff they do in every
//! run, and the owners' shapes agree. So each run sweeps only the columns
//! up to the cluster's last, and the clique of `B` — everything right of
//! the cluster — is swept once for the supernode, each label standing
//! for its owner in every run: all of them get the edge, the tallies are
//! taken once per column.
//!
//! Edges and tallies both fall out of the pieces: every operation in a
//! pair of pieces has the identical external-source set, so the *sets* of
//! edges agree with the element oracle exactly and the per-category
//! counts are plain multiplications. Nothing is walked per `(k, j)` pair,
//! no unit is examined that holds no target, and an edge is proposed
//! about once — what remains is the size of the graph itself.
//!
//! **Layout, cluster by cluster.** The runs are swept in column order,
//! and an operation's target lies in a column at or right of its source
//! columns. So once the sweep has passed a cluster's last column, nothing
//! more is proposed into the lists of that cluster's units: before each
//! run, the lists of the clusters just passed are sorted, deduplicated,
//! copied into one allocation of exactly their length and freed. The raw
//! lists and the laid-out ones are never all alive at once, nothing grows
//! by doubling, and the graph is the one the element oracle lays out
//! (pinned by `tests/deps_equivalence.rs`).

use crate::block::UnitShape;
use crate::deps::{category_of, dependencies, record_graph_stats, DepGraph, PredTable};
use crate::runs::{label_rows, source_runs, SourceRun};
use crate::units::{Partition, TaggedRun, TargetScratch, UpdateTarget};
use spfactor_interval::Interval;
use spfactor_symbolic::SymbolicFactor;

/// Selects how the unit-block dependency graph is built.
///
/// All engines return **bit-identical** [`DepGraph`] values — same
/// predecessor sets, same per-category operation counts — pinned by
/// `tests/deps_equivalence.rs` on every paper matrix and by the
/// `prop_deps_engines_agree` property test on random SPD structures. The
/// choice is purely a speed/observability trade-off:
///
/// | engine | cost |
/// |---|---|
/// | `Element` | `Θ(Σ_k c_k²)` operation replay |
/// | `Sweep` | `Θ(Σ_runs (pieces + units holding a target) + edges)` geometry sweep |
/// | `SweepParallel` | the same sweep: a second name for `Sweep` |
///
/// `Element` is the oracle — the direct enumeration of the paper's §3.3
/// operation set — and stays the pipeline-level default. Use `Sweep` on
/// large problems; `docs/PERFORMANCE.md` has measured speedups. Every
/// engine runs on the calling thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DepsEngine {
    /// Per-operation replay of every update and scaling (the oracle).
    #[default]
    Element,
    /// Source-run sweep over unit geometry, single-threaded.
    Sweep,
    /// The same sweep as [`Sweep`](Self::Sweep), under its own span name.
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
///
/// Under a recorder scope the element engine emits its historical
/// `partition.deps` span; the sweep engines run under the spans
/// `deps.engine.sweep` / `deps.engine.sweep_parallel` and emit the
/// `deps.engine.columns` / `.pairs` / `.segments` / `.walked_segments`
/// counters and the `deps.engine.threads` gauge, always 1 (see
/// `docs/METRICS.md`).
/// All engines record the shared `partition.deps.edges` /
/// `.independent_units` gauges and the `partition.deps.category.<n>`
/// counters.
pub fn build_dependencies(
    engine: DepsEngine,
    factor: &SymbolicFactor,
    partition: &Partition,
) -> DepGraph {
    let span = match engine {
        DepsEngine::Element => return dependencies(factor, partition),
        DepsEngine::Sweep => "deps.engine.sweep",
        DepsEngine::SweepParallel => "deps.engine.sweep_parallel",
    };
    let rec = spfactor_trace::current();
    let (graph, tallies) = rec.time(span, || sweep_impl(factor, partition));
    rec.gauge("deps.engine.threads", 1.0);
    rec.incr("deps.engine.columns", tallies.columns);
    rec.incr("deps.engine.pairs", tallies.pairs);
    rec.incr("deps.engine.segments", tallies.segments);
    rec.incr("deps.engine.walked_segments", tallies.walked_segments);
    record_graph_stats(&graph, tallies.pending_bytes, &rec);
    graph
}

/// Immutable lookup tables of the sweep.
struct SweepPlan<'a> {
    factor: &'a SymbolicFactor,
    partition: &'a Partition,
    /// Shape class per unit (0 = column, 1 = triangle, 2 = rectangle):
    /// classification touches this dense byte table instead of the much
    /// larger `units` array.
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
            partition,
            class,
            cat1,
            cat2,
        }
    }
}

/// Sweep work counters (the `deps.engine.*` metrics). `pairs` and
/// `segments` count what the sweep *covers* — every `(k, j)` pair, and
/// for each the pieces of column `k` from row `j` on, whether handled
/// once or multiplied through a run — `walked_segments` the pieces it
/// actually handled. `pending_bytes` is the most the raw lists not yet
/// laid out held at once.
#[derive(Clone, Copy, Default)]
struct SweepCounters {
    columns: u64,
    pairs: u64,
    segments: u64,
    walked_segments: u64,
    pending_bytes: usize,
}

/// The owners behind the labels of a set of pieces: label `t` stands for
/// the units `units[t * per_label..][..per_label]` — the unit owning the
/// piece in each of `per_label` source runs that are swept as one. Every
/// one of them gets the edge; the first stands for all in tallies.
#[derive(Clone, Copy)]
struct Owners<'a> {
    units: &'a [u32],
    per_label: usize,
}

impl Owners<'_> {
    #[inline]
    fn of(&self, label: u32) -> &[u32] {
        &self.units[label as usize * self.per_label..][..self.per_label]
    }

    #[inline]
    fn first(&self, label: u32) -> u32 {
        self.units[label as usize * self.per_label]
    }
}

/// The sweep's output: raw predecessor lists plus category tallies and
/// work counters.
struct SweepOut {
    /// `preds[u]` — proposed predecessors of unit `u` in first-seen order
    /// ([`PredTable::push`] sorts and deduplicates), emptied once laid
    /// out. An edge is proposed about once per supernode it arises from,
    /// so the lists stay within a small factor of their distinct size.
    preds: Vec<Vec<u32>>,
    /// Ids the lists not yet laid out have room for, now and at most.
    pending: usize,
    pending_peak: usize,
    /// Recently proposed `(target, source)` edges, one per slot of a
    /// direct-mapped table hashed on the pair: an edge still in its slot is
    /// not proposed again. Repeats come from the runs of one cluster — the
    /// runs of the diagonal chunks one column chunk of a below-rectangle
    /// spans have the same owners below the triangle, and a supernode's
    /// runs swept as one propose every run's owner of a label together —
    /// so they follow one another closely, and half a slot per unit (at
    /// most 2¹⁶ slots) keeps most of them off the lists (lap9 70² at
    /// grain 25: 263,671 proposals for 206,038 edges without the table,
    /// 208,321 with it). Empty slots hold `u64::MAX`, which is no edge: a
    /// unit is never its own source.
    recent: Vec<u64>,
    /// `64 − log2(recent.len())`: a pair's slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
    cats: [usize; 10],
    counters: SweepCounters,
    /// Scratch: the pieces of the rows being swept, for each the rows
    /// from it on, and the owner table of their labels.
    pieces: Vec<TaggedRun>,
    rows_from: Vec<usize>,
    owner_units: Vec<u32>,
    targets: TargetScratch,
    below: Below,
}

impl SweepOut {
    fn new(nunits: usize) -> Self {
        let slots = (nunits / 2).next_power_of_two().clamp(1 << 10, 1 << 16);
        SweepOut {
            preds: vec![Vec::new(); nunits],
            pending: 0,
            pending_peak: 0,
            recent: vec![u64::MAX; slots],
            shift: 64 - slots.trailing_zeros(),
            cats: [0; 10],
            counters: SweepCounters::default(),
            pieces: Vec::new(),
            rows_from: Vec::new(),
            owner_units: Vec::new(),
            targets: TargetScratch::default(),
            below: Below::default(),
        }
    }

    #[inline]
    fn push_edges(&mut self, tgt: u32, sources: &[u32]) {
        for &src in sources {
            let key = ((tgt as u64) << 32) | src as u64;
            let slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
            if src != tgt && self.recent[slot] != key {
                self.recent[slot] = key;
                let list = &mut self.preds[tgt as usize];
                if list.len() == list.capacity() {
                    let had = list.capacity();
                    list.reserve(1);
                    self.pending += list.capacity() - had;
                    self.pending_peak = self.pending_peak.max(self.pending);
                }
                list.push(src);
            }
        }
    }

    /// Tallies `count` operations reading units `s_i` and `s_j` into
    /// `tgt`, mirroring the element builder's `record`: dedup
    /// `{s_i, s_j}`, drop the target, classify the survivors (an empty
    /// set means the operation is internal).
    #[inline]
    fn tally(&mut self, plan: &SweepPlan, s_i: u32, s_j: u32, tgt: u32, count: usize) {
        let class = |u: u32| plan.class[u as usize] as usize;
        let t = class(tgt);
        let c = if s_i == tgt || s_i == s_j {
            if s_j == tgt {
                return;
            }
            plan.cat1[class(s_j) * 3 + t]
        } else if s_j == tgt {
            plan.cat1[class(s_i) * 3 + t]
        } else {
            plan.cat2[(class(s_i) * 3 + class(s_j)) * 3 + t]
        };
        if c != 0 {
            self.cats[c as usize - 1] += count;
        }
    }
}

/// Sweeps, `copies` times over, the updates of the columns up to
/// `last_col` by a source column whose rows are `pieces`, labelled with
/// their `owners`: the partition reports every unit holding a target with
/// the pieces inside its row extent — the `(i, k)` read — and inside its
/// column extent — the `(j, k)` — and every pair of pieces is one count
/// in one category.
fn sweep_clique(
    plan: &SweepPlan,
    pieces: &[TaggedRun],
    owners: Owners<'_>,
    copies: usize,
    last_col: usize,
    out: &mut SweepOut,
) {
    // A column target reads a suffix of the pieces; from `uniform` on
    // they have one label, so past it the suffix is one read.
    let mut rows_from = std::mem::take(&mut out.rows_from);
    rows_from.clear();
    rows_from.resize(pieces.len() + 1, 0);
    for (p, (piece, _)) in pieces.iter().enumerate().rev() {
        rows_from[p] = rows_from[p + 1] + piece.len();
    }
    let uniform = pieces
        .iter()
        .rposition(|&(_, t)| Some(t) != pieces.last().map(|l| l.1))
        .map_or(0, |p| p + 1);
    let mut targets = std::mem::take(&mut out.targets);
    plan.partition
        .for_each_update_target(pieces, last_col, &mut targets, |target| match target {
            UpdateTarget::Column { unit, col, run: p } => {
                // Targets (i, col) for the rows i >= col.
                let s_j = owners.first(pieces[p].1);
                let mut skip = col - pieces[p].0.lo;
                for &(piece, t_i) in pieces.iter().take(uniform).skip(p) {
                    out.push_edges(unit, owners.of(t_i));
                    out.tally(
                        plan,
                        owners.first(t_i),
                        s_j,
                        unit,
                        copies * (piece.len() - skip),
                    );
                    skip = 0;
                }
                let rest = p.max(uniform);
                if rest < pieces.len() {
                    let t_i = pieces[rest].1;
                    out.push_edges(unit, owners.of(t_i));
                    out.tally(
                        plan,
                        owners.first(t_i),
                        s_j,
                        unit,
                        copies * (rows_from[rest] - skip),
                    );
                }
                out.counters.segments += (copies * (pieces.len() - p)) as u64;
                out.counters.walked_segments += (uniform.saturating_sub(p) + 1) as u64;
            }
            UpdateTarget::Triangle { unit, pieces: tri } => {
                // Pairs i >= j inside the extent: within a piece, then
                // against every later piece.
                for (x, &(cols, t_j)) in tri.iter().enumerate() {
                    let (m, s_j) = (cols.len(), owners.first(t_j));
                    out.push_edges(unit, owners.of(t_j));
                    out.tally(plan, s_j, s_j, unit, copies * m * (m + 1) / 2);
                    for &(rows, t_i) in &tri[x + 1..] {
                        out.tally(plan, owners.first(t_i), s_j, unit, copies * m * rows.len());
                    }
                    out.counters.segments += (copies * m * (tri.len() - x)) as u64;
                }
                out.counters.walked_segments += tri.len() as u64;
            }
            UpdateTarget::Rectangle { unit, rows, cols } => {
                for &(cols, t_j) in cols {
                    let s_j = owners.first(t_j);
                    out.push_edges(unit, owners.of(t_j));
                    for &(rows, t_i) in rows {
                        let count = copies * rows.len() * cols.len();
                        out.tally(plan, owners.first(t_i), s_j, unit, count);
                    }
                    out.counters.segments += (copies * cols.len() * rows.len()) as u64;
                }
                for &(_, t_i) in rows {
                    out.push_edges(unit, owners.of(t_i));
                }
                out.counters.walked_segments += (rows.len() + cols.len()) as u64;
            }
        });
    out.targets = targets;
    out.rows_from = rows_from;
}

/// Sweeps every operation sourced from the columns of one source `run`
/// (see the module docs) into the columns up to `run.last_col`: their
/// scalings, their updates of one another, and — once, taken
/// `run.cols.len()` times — their updates of the columns right of the
/// run.
fn sweep_run(plan: &SweepPlan, run: &SourceRun, out: &mut SweepOut) {
    let kb = run.cols.end - 1;
    let copies = run.cols.len();
    let rows = plan.factor.col(kb);
    let ssegs = run.segs;
    let mut pieces = std::mem::take(&mut out.pieces);
    let mut units = std::mem::take(&mut out.owner_units);
    label_rows(rows, ssegs, &mut pieces);
    units.clear();
    units.extend(ssegs.iter().map(|s| s.1));
    // The first segment holds the run's own columns as rows: its unit
    // owns every (j, k) with both in the run, and every diagonal.
    let own = units[0];

    // Inside the run: column k scales its entries, and updates column
    // j > k of the run, reading (k, k) or (j, k) — both `own`'s — into
    // entries (i, ·) whose owner also owns (i, k).
    let inner = copies * (copies - 1) / 2;
    for &(piece, label) in &pieces {
        let unit = units[label as usize];
        out.push_edges(unit, &[own]);
        out.tally(plan, own, own, unit, (copies + inner) * piece.len());
    }
    let c = &mut out.counters;
    c.columns += copies as u64;
    c.pairs += (inner + copies * rows.len()) as u64;
    c.segments += ((copies + inner) * (pieces.len() + 1) - 1) as u64;
    c.walked_segments += pieces.len() as u64;

    // Right of the run.
    let owners = Owners {
        units: &units,
        per_label: 1,
    };
    sweep_clique(plan, &pieces, owners, copies, run.last_col, out);
    out.pieces = pieces;
    out.owner_units = units;
}

/// The owners of the rows below a cluster, collected from the runs of
/// the supernode that ends it as they go by. Every run owns those rows
/// through the same trailing segments — the row chunks of the
/// below-rectangles, or a single column's one segment.
#[derive(Default)]
struct Below {
    /// The cluster's last column, and the first column of the supernode
    /// ending it.
    of: Option<usize>,
    first: usize,
    /// Trailing segments per run, and their units run by run.
    trailing: usize,
    units: Vec<u32>,
    /// Scratch: the last column's segmentation.
    segs: Vec<(Interval, u32)>,
}

impl Below {
    /// Notes the trailing owners of `run`, of a supernode ending its
    /// cluster.
    fn collect(&mut self, plan: &SweepPlan, run: &SourceRun) {
        if self.of != Some(run.last_col) {
            self.of = Some(run.last_col);
            self.first = run.cols.start;
            self.units.clear();
            // All of a single column's segments trail; a strip's past the
            // last diagonal chunk do.
            plan.partition.ownership_of(run.last_col, &mut self.segs);
            let single = plan.class[self.segs[0].1 as usize] == 0;
            self.trailing = self.segs.len() - usize::from(!single);
        }
        let trail = &run.segs[run.segs.len() - self.trailing..];
        self.units.extend(trail.iter().map(|s| s.1));
    }
}

/// Sweeps, once for all the runs of a supernode that ends its cluster —
/// the last of them `run` — their updates of the columns right of the
/// cluster: the clique of the rows below it. A piece is labelled with its
/// trailing segment, and an edge goes out from every run's owner of it.
fn sweep_below(plan: &SweepPlan, run: &SourceRun, out: &mut SweepOut) {
    let below = std::mem::take(&mut out.below);
    let (runs, trailing) = (run.closes, below.trailing);
    debug_assert_eq!(below.units.len(), runs * trailing);
    let last = run.cols.end - 1;
    let mut pieces = std::mem::take(&mut out.pieces);
    let mut units = std::mem::take(&mut out.owner_units);
    label_rows(
        plan.factor.col(last),
        &run.segs[run.segs.len() - trailing..],
        &mut pieces,
    );
    units.clear();
    for label in 0..trailing {
        units.extend((0..runs).map(|r| below.units[r * trailing + label]));
    }
    let owners = Owners {
        units: &units,
        per_label: runs,
    };
    out.counters.walked_segments += pieces.len() as u64;
    sweep_clique(
        plan,
        &pieces,
        owners,
        last + 1 - below.first,
        usize::MAX,
        out,
    );
    out.pieces = pieces;
    out.owner_units = units;
    out.below = below;
}

fn sweep_impl(factor: &SymbolicFactor, partition: &Partition) -> (DepGraph, SweepCounters) {
    let plan = SweepPlan::new(factor, partition);
    let nu = partition.num_units();
    let mut out = SweepOut::new(nu);
    let mut table = PredTable::new(nu, partition.clusters.len());
    // Units are numbered cluster by cluster, left to right: the ones left
    // of column `col` are a prefix, and their lists are final.
    let last_col = |u: usize| partition.clusters[partition.units[u].cluster].cols.hi;
    let mut lay_out_before = |col: usize, out: &mut SweepOut| {
        let first = table.len();
        let mut end = first;
        while end < nu && last_col(end) < col {
            end += 1;
        }
        if end > first {
            let lists = &mut out.preds[first..end];
            out.pending -= lists.iter().map(Vec::capacity).sum::<usize>();
            table.push_batch(lists);
        }
    };
    let mut runs = source_runs(factor, partition);
    while let Some(run) = runs.next_run() {
        lay_out_before(run.cols.start, &mut out);
        sweep_run(&plan, &run, &mut out);
        if run.last_col != usize::MAX {
            out.below.collect(&plan, &run);
        }
        if run.closes > 0 {
            sweep_below(&plan, &run, &mut out);
        }
    }
    lay_out_before(usize::MAX, &mut out);
    let counters = SweepCounters {
        pending_bytes: 4 * out.pending_peak,
        ..out.counters
    };
    (table.finish(out.cats), counters)
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
            let (swept, _) = sweep_impl(&f, &part);
            assert_eq!(swept, oracle, "grain {grain} width {width}");
        }
    }

    #[test]
    fn sweep_matches_element_on_column_partition() {
        let p = gen::lap9(7, 7);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let oracle = dependencies(&f, &part);
        assert_eq!(sweep_impl(&f, &part).0, oracle);
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
        let (_, t) = sweep_impl(&f, &part);
        assert_eq!(t.columns, f.n() as u64);
        let nnz: usize = (0..f.n()).map(|j| f.col_count(j)).sum();
        assert_eq!(t.pairs, nnz as u64);
        assert!(t.segments >= t.pairs, "each pair walks >= 1 segment");
        assert!(t.walked_segments > 0 && t.walked_segments <= t.segments);
    }
}
