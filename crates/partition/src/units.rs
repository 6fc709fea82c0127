//! Partitioning dense blocks into schedulable unit blocks (§3.2).
//!
//! * a single-column cluster is one unit and is never subdivided;
//! * the triangular block of a strip is split into `t` diagonal
//!   sub-triangles and `t(t−1)/2` interior sub-rectangles, where `t` is the
//!   largest chunk count whose `t(t+1)/2` units respect the grain size;
//! * each dense rectangle below the triangle is split into a `pr × pc`
//!   grid of sub-rectangles respecting the grain size.
//!
//! The grain size is "the minimum number of matrix elements required in
//! each unit block"; it "dictates a maximum number of partitions Pd — a
//! block is partitioned into at most Pd equal sized units".

use crate::block::{Cluster, ClusterKind, UnitBlock, UnitShape};
use crate::cluster::identify_clusters;
use crate::PartitionParams;
use spfactor_interval::Interval;
use spfactor_symbolic::{fundamental_supernodes, ops, SymbolicFactor};
use spfactor_trace::Current;
use std::ops::Range;

/// The result of partitioning a symbolic factor: clusters, unit blocks in
/// allocation scan order, and the geometry that says which unit owns
/// each factor entry — no table with a row per entry.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Clusters, left to right.
    pub clusters: Vec<Cluster>,
    /// Unit blocks in the paper's allocation scan order.
    pub units: Vec<UnitBlock>,
    /// Parameters used.
    pub params: PartitionParams,
    /// `col_cluster[j]` is the cluster holding column `j`.
    col_cluster: Vec<u32>,
    /// Per-cluster geometry tables, parallel to `clusters`: every
    /// ownership query — a column's segmentation, the entry → unit map
    /// ([`Partition::ownership`]), the units an update reaches — is
    /// answered from these.
    layouts: Vec<ClusterLayout>,
}

/// One below-diagonal dense rectangle of a strip, split into a grid of
/// sub-rectangle units laid out row-major from `first_unit`.
#[derive(Clone, Debug)]
pub(crate) struct RectGrid {
    /// Row chunks, ascending and contiguous, tiling the rectangle's row
    /// extent (one maximal run of dense rows).
    pub row_chunks: Vec<Interval>,
    /// Column chunks, ascending and contiguous, tiling the strip columns.
    pub col_chunks: Vec<Interval>,
    /// Unit id of chunk `(r, c)` is `first_unit + r * col_chunks.len() + c`.
    pub first_unit: u32,
}

/// The geometry lookup table of one cluster: which unit owns `(i, j)` for
/// any stored entry with `j` in the cluster. Built once by
/// [`Partition::from_clusters`] and kept on the [`Partition`]; a
/// single-column cluster's is 16 bytes.
#[derive(Clone, Debug)]
pub(crate) enum ClusterLayout {
    /// Single-column cluster: one unit owns the whole column.
    Single {
        /// The unit id.
        unit: u32,
    },
    /// A supernodal strip: a split dense triangle plus below-rectangles.
    Strip(Box<StripLayout>),
}

/// The geometry of a strip: its triangle's diagonal chunks and its
/// below-rectangle grids. The triangle's units come first in scan order:
/// the `t` diagonal sub-triangles top to bottom, then the interior
/// sub-rectangles `(r, c)`, `r > c`, row by row.
#[derive(Clone, Debug)]
pub(crate) struct StripLayout {
    /// Diagonal chunk extents of the triangle, ascending.
    tri_chunks: Vec<Interval>,
    /// Unit id of the first diagonal sub-triangle.
    first_unit: u32,
    /// Below-rectangle grids, in ascending row order.
    rects: Vec<RectGrid>,
}

impl StripLayout {
    /// Unit id of diagonal sub-triangle `d`.
    #[inline]
    fn tri_unit(&self, d: usize) -> u32 {
        self.first_unit + d as u32
    }

    /// Unit id of the triangle's interior sub-rectangle `(r, c)`, `r > c`.
    #[inline]
    fn tri_rect_unit(&self, r: usize, c: usize) -> u32 {
        debug_assert!(c < r);
        self.first_unit + (self.tri_chunks.len() + r * (r - 1) / 2 + c) as u32
    }

    /// Capacity of the strip's heap: the box and the vectors it holds.
    fn heap_bytes(&self) -> usize {
        let grids: usize = self
            .rects
            .iter()
            .map(|g| g.row_chunks.capacity() + g.col_chunks.capacity())
            .sum();
        size_of::<StripLayout>()
            + (self.tri_chunks.capacity() + grids) * size_of::<Interval>()
            + self.rects.capacity() * size_of::<RectGrid>()
    }
}

impl RectGrid {
    /// The rectangle's row extent (one maximal run of dense rows).
    fn rows(&self) -> Interval {
        Interval {
            lo: self.row_chunks[0].lo,
            hi: self.row_chunks[self.row_chunks.len() - 1].hi,
        }
    }
}

/// A run of consecutive rows with a label of the caller's choosing —
/// the unit or processor owning those entries of a source column, say.
/// [`Partition::for_each_update_target`] carries the label through to
/// every piece it cuts from the run.
pub type TaggedRun = (Interval, u32);

/// A unit block that owns update targets of one source column, reported
/// by [`Partition::for_each_update_target`] with the pieces of the
/// source column's row set `S` that fall inside its extents — the source
/// entries its updates read.
#[derive(Clone, Copy, Debug)]
pub enum UpdateTarget<'a> {
    /// A single-column unit whose column `col` is in `S`; it owns the
    /// targets `(i, col)` for every `i ∈ S`, `i >= col`, so it reads the
    /// suffix of `S` from `col` on: `runs[run]` from `col`, then every
    /// later run (left to the caller — materializing it per column unit
    /// would be quadratic in `|S|`).
    Column {
        /// The unit id.
        unit: u32,
        /// Its column.
        col: usize,
        /// Index of the run holding `col`.
        run: usize,
    },
    /// A diagonal sub-triangle: `pieces = S ∩ extent`, non-empty.
    Triangle {
        /// The unit id.
        unit: u32,
        /// Ascending, disjoint pieces of `S` inside the extent.
        pieces: &'a [TaggedRun],
    },
    /// A sub-rectangle: `rows = S ∩ row extent` and
    /// `cols = S ∩ column extent`, both non-empty.
    Rectangle {
        /// The unit id.
        unit: u32,
        /// Ascending, disjoint pieces of `S` inside the row extent.
        rows: &'a [TaggedRun],
        /// Ascending, disjoint pieces of `S` inside the column extent.
        cols: &'a [TaggedRun],
    },
}

/// One chunk of a chunk axis met by the source rows: the chunk's index
/// and the range of [`TargetScratch::pieces`] holding `S ∩ chunk`.
type ChunkHit = (u32, Range<usize>);

/// Reusable buffers of [`Partition::for_each_update_target`].
#[derive(Debug, Default)]
pub struct TargetScratch {
    /// Pieces of `S`, chunk by chunk, for the cluster being visited.
    pieces: Vec<TaggedRun>,
    /// `S ∩ columns(cluster)`.
    col_runs: Vec<TaggedRun>,
    /// Hit chunks of the triangle axis, of the current below-rectangle's
    /// row axis, and of its column axis.
    tri: Vec<ChunkHit>,
    rows: Vec<ChunkHit>,
    cols: Vec<ChunkHit>,
}

/// Splits `rows` (labelled `tag`) at the boundaries of the contiguous,
/// ascending `chunks` (which must cover it), appending each non-empty
/// piece to `pieces` and recording it under its chunk in `hits`; a chunk
/// reached by consecutive calls keeps one entry.
fn split_run(
    rows: Interval,
    tag: u32,
    chunks: &[Interval],
    hits: &mut Vec<ChunkHit>,
    pieces: &mut Vec<TaggedRun>,
) {
    let mut c = chunks.partition_point(|ch| ch.hi < rows.lo);
    let mut lo = rows.lo;
    loop {
        let hi = rows.hi.min(chunks[c].hi);
        pieces.push((Interval { lo, hi }, tag));
        match hits.last_mut() {
            Some((idx, range)) if *idx as usize == c => range.end = pieces.len(),
            _ => hits.push((c as u32, pieces.len() - 1..pieces.len())),
        }
        if hi == rows.hi {
            return;
        }
        lo = hi + 1;
        c += 1;
    }
}

/// The [`Partition::for_each_update_target`] step for one strip with
/// columns `cols`; `runs[0]` is the first run of `S` reaching them.
fn strip_targets(
    layout: &ClusterLayout,
    cols: Interval,
    runs: &[TaggedRun],
    scratch: &mut TargetScratch,
    f: &mut impl FnMut(UpdateTarget<'_>),
) {
    let ClusterLayout::Strip(strip) = layout else {
        unreachable!("single-column clusters are reported by the caller");
    };
    let StripLayout {
        tri_chunks, rects, ..
    } = &**strip;
    let TargetScratch {
        pieces,
        col_runs,
        tri: tri_hits,
        rows: row_hits,
        cols: col_hits,
    } = scratch;
    pieces.clear();
    col_runs.clear();
    tri_hits.clear();
    // Column side: S ∩ cols, split along the triangle's diagonal chunks.
    let mut below = 0; // first run reaching past the strip's columns
    for &(run, tag) in runs.iter().take_while(|(r, _)| r.lo <= cols.hi) {
        let clipped = Interval {
            lo: run.lo.max(cols.lo),
            hi: run.hi.min(cols.hi),
        };
        col_runs.push((clipped, tag));
        split_run(clipped, tag, tri_chunks, tri_hits, pieces);
        below += usize::from(run.hi <= cols.hi);
    }
    for &(d, ref range) in tri_hits.iter() {
        f(UpdateTarget::Triangle {
            unit: strip.tri_unit(d as usize),
            pieces: &pieces[range.clone()],
        });
    }
    for (b, &(r, ref below_piece)) in tri_hits.iter().enumerate().skip(1) {
        for &(c, ref left_piece) in &tri_hits[..b] {
            f(UpdateTarget::Rectangle {
                unit: strip.tri_rect_unit(r as usize, c as usize),
                rows: &pieces[below_piece.clone()],
                cols: &pieces[left_piece.clone()],
            });
        }
    }
    // Row side below the triangle, one rectangle at a time: its hit row
    // chunks, then the products with its hit column chunks. (The runs of
    // a factor column all land in rectangles — their rows are the union
    // of the strip's column structures, and a column in S carries S's
    // tail — but a run in a gap is simply passed over.)
    let mut gi = 0;
    let mut col_hits_for = usize::MAX; // column-chunk count `col_hits` was split for
    row_hits.clear();
    let mut emit = |grid: &RectGrid, row_hits: &mut Vec<ChunkHit>, pieces: &mut Vec<TaggedRun>| {
        let pc = grid.col_chunks.len();
        if col_hits_for != pc {
            col_hits_for = pc;
            col_hits.clear();
            for &(run, tag) in col_runs.iter() {
                split_run(run, tag, &grid.col_chunks, col_hits, pieces);
            }
        }
        for &(r, ref row_piece) in row_hits.iter() {
            for &(c, ref col_piece) in col_hits.iter() {
                f(UpdateTarget::Rectangle {
                    unit: grid.first_unit + r * pc as u32 + c,
                    rows: &pieces[row_piece.clone()],
                    cols: &pieces[col_piece.clone()],
                });
            }
        }
        row_hits.clear();
    };
    for &(run, tag) in &runs[below..] {
        let mut lo = run.lo.max(cols.hi + 1);
        while gi < rects.len() {
            let extent = rects[gi].rows();
            if extent.hi < lo {
                if !row_hits.is_empty() {
                    emit(&rects[gi], row_hits, pieces);
                }
                gi += 1;
                gi += rects[gi..].partition_point(|g| g.rows().hi < lo);
                continue;
            }
            if extent.lo > run.hi {
                break;
            }
            let piece = Interval {
                lo: lo.max(extent.lo),
                hi: run.hi.min(extent.hi),
            };
            split_run(piece, tag, &rects[gi].row_chunks, row_hits, pieces);
            if run.hi <= extent.hi {
                break;
            }
            lo = extent.hi + 1;
        }
    }
    if !row_hits.is_empty() {
        emit(&rects[gi], row_hits, pieces);
    }
}

/// Splits `extent` into `t` near-equal contiguous chunks.
fn chunks(extent: Interval, t: usize) -> Vec<Interval> {
    let w = extent.len();
    debug_assert!(t >= 1 && t <= w);
    (0..t)
        .map(|k| {
            let lo = extent.lo + k * w / t;
            let hi = extent.lo + (k + 1) * w / t - 1;
            Interval::new(lo, hi)
        })
        .collect()
}

/// Number of diagonal chunks for a triangle of width `w` under grain `g`:
/// the largest `t <= w` with `t(t+1)/2 <= max(1, w(w+1)/2 / g)`.
fn triangle_chunk_count(w: usize, g: usize) -> usize {
    let elems = w * (w + 1) / 2;
    let pd = (elems / g.max(1)).max(1);
    // t(t+1)/2 <= pd  =>  t = floor((sqrt(8 pd + 1) - 1) / 2)
    let mut t = (((8.0 * pd as f64 + 1.0).sqrt() - 1.0) / 2.0).floor() as usize;
    t = t.clamp(1, w);
    t
}

/// Grid dimensions `(pr, pc)` for a `h × w` rectangle under grain `g`:
/// maximizes `pr * pc <= max(1, h*w/g)` with `pr <= h`, `pc <= w`,
/// preferring near-square sub-blocks; deterministic.
fn rectangle_grid(h: usize, w: usize, g: usize) -> (usize, usize) {
    let pd = ((h * w) / g.max(1)).max(1);
    let mut best = (1usize, 1usize);
    let mut best_score = (0usize, f64::INFINITY);
    for pc in 1..=w.min(pd) {
        let pr = (pd / pc).min(h);
        let count = pr * pc;
        // Sub-block aspect ratio distance from square.
        let sub_h = h as f64 / pr as f64;
        let sub_w = w as f64 / pc as f64;
        let aspect = (sub_h / sub_w).max(sub_w / sub_h);
        if count > best_score.0 || (count == best_score.0 && aspect < best_score.1 - 1e-12) {
            best_score = (count, aspect);
            best = (pr, pc);
        }
    }
    best
}

/// Flattened per-column ownership segmentations
/// ([`Partition::segmentation`]): column `j`'s segments are
/// `segs[start[j]..start[j + 1]]`, ascending and disjoint.
#[derive(Debug)]
pub(crate) struct Segmentation {
    start: Vec<usize>,
    segs: Vec<(Interval, u32)>,
}

impl Segmentation {
    /// Column `j`'s *ownership segmentation*: disjoint row intervals in
    /// ascending order, each tagged with the unit that owns every stored
    /// entry `(i, j)` with `i` in the interval. Together the segments
    /// cover all rows `i >= j` that can hold a stored entry of column `j`
    /// (the first segment may extend above `j`; ownership queries are
    /// only meaningful at stored entries). Within one segment the owner
    /// is constant, so per-element resolution collapses to binary
    /// searches over segment boundaries.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[(Interval, u32)] {
        &self.segs[self.start[j]..self.start[j + 1]]
    }

    /// Capacity of the table's two arrays, in bytes.
    fn heap_bytes(&self) -> usize {
        self.start.capacity() * size_of::<usize>()
            + self.segs.capacity() * size_of::<(Interval, u32)>()
    }
}

/// What the work tally walked (the `partition.work.*` counters and the
/// `heap.partition.segmentation.bytes` gauge).
struct WorkTally {
    /// Non-empty sorted row runs split against a segmentation: one scaling
    /// run per column plus one update tail per (supernode, target column).
    pairs: u64,
    /// Pieces those runs fell into.
    segments: u64,
    /// Capacity of the segmentation table walked.
    segmentation_bytes: usize,
}

/// Returns the end of the prefix of `rows[idx..end]` with values `<= hi`,
/// as an absolute index (`rows[idx] <= hi` is the caller's guarantee).
/// One compare against the slice's last row settles the dominant case — a
/// single segment covering the whole remainder; otherwise the boundary is
/// galloped to from `idx`, since a piece is a handful of rows (one chunk
/// of a dense block) however long the remainder is.
#[inline]
pub(crate) fn split_at(rows: &[usize], idx: usize, end: usize, hi: usize) -> usize {
    debug_assert!(rows[idx] <= hi);
    if rows[end - 1] <= hi {
        return end;
    }
    let mut lo = idx;
    let mut step = 1;
    while lo + step < end && rows[lo + step] <= hi {
        lo += step;
        step *= 2;
    }
    let upper = (lo + step).min(end);
    lo + 1 + rows[lo + 1..upper].partition_point(|&r| r <= hi)
}

/// Advances `idx` to the first segment whose interval reaches row `i`
/// (caller guarantees one exists). A few linear steps cover the dense-run
/// common case; sparse columns inside wide segmentations — where stored
/// rows skip dozens of segments at a time — fall through to a binary
/// search so the advance is logarithmic, not linear, in the skip length.
#[inline]
pub(crate) fn advance(segs: &[(Interval, u32)], mut idx: usize, i: usize) -> usize {
    let mut linear = 0;
    while segs[idx].0.hi < i {
        idx += 1;
        linear += 1;
        if linear == 4 {
            return idx + segs[idx..].partition_point(|s| s.0.hi < i);
        }
    }
    idx
}

/// Splits the ascending `rows` at the boundaries of `segs` and calls
/// `f(unit, piece)` for each non-empty piece, `piece` an index range into
/// `rows`. Returns the number of pieces, or the first row no segment
/// covers — `rows` is not a column of the factor `segs` was laid out for.
#[inline]
fn split_rows(
    rows: &[usize],
    segs: &[(Interval, u32)],
    mut f: impl FnMut(u32, Range<usize>),
) -> Result<u64, usize> {
    match (rows.last(), segs.last()) {
        (None, _) => return Ok(0),
        (Some(&last), Some(seg)) if last <= seg.0.hi => {}
        (Some(&last), _) => return Err(last),
    }
    let mut pieces = 0;
    let mut si = 0;
    let mut idx = 0;
    while idx < rows.len() {
        si = advance(segs, si, rows[idx]);
        if segs[si].0.lo > rows[idx] {
            return Err(rows[idx]);
        }
        let end = split_at(rows, idx, rows.len(), segs[si].0.hi);
        f(segs[si].1, idx..end);
        pieces += 1;
        idx = end;
    }
    Ok(pieces)
}

impl Partition {
    /// Runs cluster identification and unit partitioning on `factor`.
    ///
    /// Under a recorder scope: times cluster identification
    /// (`partition.identify_clusters`) and unit layout
    /// (`partition.split_units`) separately, counts the tails and segment
    /// pieces the work tally walked (`partition.work.pairs` /
    /// `partition.work.segments`), records the heap the partition keeps
    /// and the transient table the tally walked
    /// (`heap.partition.kept.bytes` / `heap.partition.segmentation.bytes`)
    /// and the resulting shape of the partition — cluster counts by kind,
    /// unit counts by shape, total work — as `partition.*` gauges (see
    /// `docs/METRICS.md`).
    pub fn build(factor: &SymbolicFactor, params: &PartitionParams) -> Partition {
        let rec = spfactor_trace::current();
        let clusters = rec.time("partition.identify_clusters", || {
            identify_clusters(factor, params)
        });
        let (part, tally) = rec.time("partition.split_units", || {
            Self::from_clusters(factor, clusters, *params)
        });
        rec.incr("partition.work.pairs", tally.pairs);
        rec.incr("partition.work.segments", tally.segments);
        part.record_stats(&rec, tally.segmentation_bytes);
        part
    }

    /// Records this partition's heap and shape as `heap.partition.*` and
    /// `partition.*` gauges.
    fn record_stats(&self, rec: &Current, segmentation_bytes: usize) {
        if !rec.is_recording() {
            return;
        }
        rec.gauge("heap.partition.kept.bytes", self.heap_bytes() as f64);
        rec.gauge(
            "heap.partition.segmentation.bytes",
            segmentation_bytes as f64,
        );
        let strips = self.clusters.iter().filter(|c| !c.is_single()).count();
        rec.gauge("partition.clusters", self.clusters.len() as f64);
        rec.gauge("partition.clusters.strip", strips as f64);
        rec.gauge(
            "partition.clusters.single_column",
            (self.clusters.len() - strips) as f64,
        );
        let mut by_shape = [0usize; 3];
        for u in &self.units {
            match u.shape {
                UnitShape::Column { .. } => by_shape[0] += 1,
                UnitShape::Triangle { .. } => by_shape[1] += 1,
                UnitShape::Rectangle { .. } => by_shape[2] += 1,
            }
        }
        rec.gauge("partition.units", self.units.len() as f64);
        rec.gauge("partition.units.column", by_shape[0] as f64);
        rec.gauge("partition.units.triangle", by_shape[1] as f64);
        rec.gauge("partition.units.rectangle", by_shape[2] as f64);
        rec.gauge("partition.total_work", self.total_work() as f64);
    }

    /// The heap this partition keeps, in bytes: the capacity of the unit
    /// list, of the clusters with their rectangle row extents, of the
    /// layouts with their boxed strips, and of the column → cluster
    /// table. Nothing in it grows with the factor's entry count.
    pub fn heap_bytes(&self) -> usize {
        let rect_rows: usize = self
            .clusters
            .iter()
            .map(|c| match &c.kind {
                ClusterKind::Strip { rect_rows } => rect_rows.capacity(),
                ClusterKind::SingleColumn => 0,
            })
            .sum();
        let strips: usize = self
            .layouts
            .iter()
            .map(|l| match l {
                ClusterLayout::Strip(strip) => strip.heap_bytes(),
                ClusterLayout::Single { .. } => 0,
            })
            .sum();
        self.units.capacity() * size_of::<UnitBlock>()
            + self.clusters.capacity() * size_of::<Cluster>()
            + rect_rows * size_of::<Interval>()
            + self.layouts.capacity() * size_of::<ClusterLayout>()
            + strips
            + self.col_cluster.capacity() * size_of::<u32>()
    }

    /// A degenerate partition with one column unit per column — the layout
    /// the *wrap-mapped* baseline scheme assigns processors over. Column
    /// `j`'s unit owns the whole column and does the work landing in it
    /// ([`ops::column_work`]), so there is no geometry to lay out:
    /// `O(n)` beside the work count. Under a recorder scope: the
    /// `partition.columns` span and the same `heap.partition.*` and
    /// `partition.*` gauges as [`build`](Self::build) (no segmentation
    /// table: 0).
    pub fn columns(factor: &SymbolicFactor) -> Partition {
        let rec = spfactor_trace::current();
        let part = rec.time("partition.columns", || Self::column_units(factor));
        part.record_stats(&rec, 0);
        part
    }

    fn column_units(factor: &SymbolicFactor) -> Partition {
        let n = factor.n();
        let work = ops::column_work(factor);
        Partition {
            clusters: (0..n)
                .map(|j| Cluster {
                    id: j,
                    cols: Interval::point(j),
                    kind: ClusterKind::SingleColumn,
                })
                .collect(),
            units: (0..n)
                .map(|j| UnitBlock {
                    id: j,
                    cluster: j,
                    shape: UnitShape::Column { col: j },
                    elements: 1 + factor.col_count(j),
                    work: work[j],
                })
                .collect(),
            params: PartitionParams {
                grain: 1,
                min_cluster_width: usize::MAX,
                relax_zeros: 0,
            },
            col_cluster: (0..n as u32).collect(),
            layouts: (0..n)
                .map(|j| ClusterLayout::Single { unit: j as u32 })
                .collect(),
        }
    }

    /// Lays `clusters` out into unit blocks, then fills every unit's
    /// element count and work
    /// ([`fill_elements_and_work`](Self::fill_elements_and_work)).
    fn from_clusters(
        factor: &SymbolicFactor,
        clusters: Vec<Cluster>,
        params: PartitionParams,
    ) -> (Partition, WorkTally) {
        // The geometry first, handing unit ids out in scan order.
        let mut next = 0u32;
        let layouts: Vec<ClusterLayout> = clusters
            .iter()
            .map(|cl| match &cl.kind {
                ClusterKind::SingleColumn => {
                    next += 1;
                    ClusterLayout::Single { unit: next - 1 }
                }
                ClusterKind::Strip { rect_rows } => {
                    let w = cl.width();
                    let t = triangle_chunk_count(w, params.grain);
                    let first_unit = next;
                    next += (t * (t + 1) / 2) as u32;
                    // Each below-rectangle split into a pr × pc grid.
                    let rects = rect_rows
                        .iter()
                        .map(|&rr| {
                            let (pr, pc) = rectangle_grid(rr.len(), w, params.grain);
                            let grid = RectGrid {
                                row_chunks: chunks(rr, pr),
                                col_chunks: chunks(cl.cols, pc),
                                first_unit: next,
                            };
                            next += (pr * pc) as u32;
                            grid
                        })
                        .collect();
                    ClusterLayout::Strip(Box::new(StripLayout {
                        tri_chunks: chunks(cl.cols, t),
                        first_unit,
                        rects,
                    }))
                }
            })
            .collect();

        // Then the units, read off the geometry in the same order: a
        // strip's diagonal sub-triangles top to bottom, its interior
        // sub-rectangles (r, c), r > c, row by row, then each
        // below-rectangle's grid row-major.
        let mut units: Vec<UnitBlock> = Vec::with_capacity(next as usize);
        let mut push = |cluster: usize, shape: UnitShape| {
            units.push(UnitBlock {
                id: units.len(),
                cluster,
                shape,
                elements: 0,
                work: 0,
            })
        };
        for (cl, layout) in clusters.iter().zip(&layouts) {
            let ClusterLayout::Strip(strip) = layout else {
                push(cl.id, UnitShape::Column { col: cl.cols.lo });
                continue;
            };
            let tri = &strip.tri_chunks;
            for &extent in tri {
                push(cl.id, UnitShape::Triangle { extent });
            }
            for r in 1..tri.len() {
                for &cols in &tri[..r] {
                    push(cl.id, UnitShape::Rectangle { cols, rows: tri[r] });
                }
            }
            for grid in &strip.rects {
                for &rows in &grid.row_chunks {
                    for &cols in &grid.col_chunks {
                        push(cl.id, UnitShape::Rectangle { cols, rows });
                    }
                }
            }
        }
        debug_assert_eq!(units.len(), next as usize);

        let n = clusters.last().map_or(0, |c| c.cols.hi + 1);
        let mut col_cluster = Vec::with_capacity(n);
        for cl in &clusters {
            col_cluster.extend(std::iter::repeat_n(cl.id as u32, cl.width()));
        }
        let mut part = Partition {
            clusters,
            units,
            params,
            col_cluster,
            layouts,
        };
        let tally = part.fill_elements_and_work(factor);
        (part, tally)
    }

    /// Fills every unit's `elements` and `work` from the ownership
    /// segmentation alone — no update pair is enumerated.
    ///
    /// Within one segment of a target column the owning unit is constant,
    /// so a sorted run of target rows is counted by splitting it at the
    /// segment boundaries ([`split_rows`]):
    ///
    /// * *Elements and scalings.* Each piece of `col(j)` adds its length
    ///   to its owner's elements and one scaling per entry; the diagonal
    ///   belongs to the first segment's unit.
    /// * *Updates*, grouped by fundamental supernode `S = [k0..=k1]` on
    ///   the source side. Every column `k ∈ S` stores `{k+1..=k1} ∪ B`
    ///   with `B = col(k1)`, so the update pairs `(i, j, k)` of the whole
    ///   supernode into one target column `j = rows(k0)[b]` are
    ///   `min(b + 1, |S|)` copies of the single tail `rows(k0)[b..]`: `j`
    ///   inside `S` is updated by the `j − k0 = b + 1` columns left of
    ///   it, `j ∈ B` by all `|S|`. The tail is split once and each piece
    ///   adds `2 · copies · len` to its owner.
    ///
    /// `Θ(Σ_S |rows(k0_S)| · segments)` against the per-pair replay's
    /// `Θ(Σ_k c_k² · log c)`.
    fn fill_elements_and_work(&mut self, factor: &SymbolicFactor) -> WorkTally {
        const COVERED: &str = "a partition's layout covers its own factor";
        let segs = self.segmentation();
        let mut elements = vec![0usize; self.units.len()];
        let mut work = vec![0usize; self.units.len()];
        let mut tally = WorkTally {
            pairs: 0,
            segments: 0,
            segmentation_bytes: segs.heap_bytes(),
        };

        for j in 0..factor.n() {
            let col_segs = segs.col(j);
            // The first segment always contains row j.
            elements[col_segs[0].1 as usize] += 1;
            let rows = factor.col(j);
            tally.pairs += u64::from(!rows.is_empty());
            tally.segments += split_rows(rows, col_segs, |unit, piece| {
                elements[unit as usize] += piece.len();
                work[unit as usize] += piece.len();
            })
            .expect(COVERED);
        }

        for sn in fundamental_supernodes(factor) {
            let rows = factor.col(sn.start);
            tally.pairs += rows.len() as u64;
            for (b, &j) in rows.iter().enumerate() {
                let weight = 2 * (b + 1).min(sn.len());
                tally.segments += split_rows(&rows[b..], segs.col(j), |unit, piece| {
                    work[unit as usize] += weight * piece.len();
                })
                .expect(COVERED);
            }
        }

        for ((u, e), w) in self.units.iter_mut().zip(elements).zip(work) {
            u.elements = e;
            u.work = w;
        }
        tally
    }

    /// The ownership segmentation of every column ([`Segmentation::col`])
    /// in one flat table — the geometry view the work tally walks.
    /// Transient: the partition builds it, walks it and drops it. The
    /// analysis engines derive one column at a time instead
    /// ([`ownership_of`](Self::ownership_of)).
    pub(crate) fn segmentation(&self) -> Segmentation {
        let n = self.col_cluster.len();
        let mut start = Vec::with_capacity(n + 1);
        let mut segs = Vec::new();
        start.push(0);
        for (cid, cluster) in self.clusters.iter().enumerate() {
            for j in cluster.cols.lo..=cluster.cols.hi {
                self.ownership_in(cid, j, &mut segs);
                start.push(segs.len());
            }
        }
        Segmentation { start, segs }
    }

    /// The unit owning factor entry `(i, j)` (`i >= j`, must be a stored
    /// entry), read off column `j`'s ownership segmentation.
    pub fn unit_of(&self, factor: &SymbolicFactor, i: usize, j: usize) -> usize {
        factor
            .entry_id(i, j)
            .expect("(i, j) must be a factor nonzero");
        let mut segs = Vec::new();
        self.ownership_of(j, &mut segs);
        segs[segs.partition_point(|s| s.0.hi < i)].1 as usize
    }

    /// Splits column `j` of `factor` by owning unit: calls `f(unit, ids)`
    /// for the diagonal entry (`ids = j..j + 1`), then for each maximal
    /// piece of the column's strict entries one unit owns, `ids` the
    /// piece's entry ids (ascending rows). `segs` is the caller's
    /// scratch for the column's segmentation. Fails with the first
    /// stored row the layout does not cover — `factor` is not the one
    /// this partition was built for. `j` must be one of the partition's
    /// columns.
    pub fn split_column(
        &self,
        factor: &SymbolicFactor,
        j: usize,
        segs: &mut Vec<(Interval, u32)>,
        mut f: impl FnMut(u32, Range<usize>),
    ) -> Result<(), usize> {
        self.ownership_of(j, segs);
        f(segs[0].1, j..j + 1);
        let base = factor.n() + factor.colptr()[j];
        split_rows(factor.col(j), segs, |unit, piece| {
            f(unit, base + piece.start..base + piece.end)
        })
        .map(drop)
    }

    /// The entry → unit map, indexed by factor entry id, derived from the
    /// layout column by column ([`split_column`](Self::split_column)).
    /// Nothing keeps it: the element oracles and tests build it when they
    /// need it, the executors group entries from the columns directly.
    ///
    /// # Panics
    ///
    /// If `factor` is not the one this partition was built for (another
    /// column count, or a stored row outside the layout).
    pub fn ownership(&self, factor: &SymbolicFactor) -> Vec<u32> {
        assert_eq!(
            factor.n(),
            self.num_cols(),
            "the factor's column count is not the partition's"
        );
        let mut owner = vec![0u32; factor.num_entries()];
        let mut segs = Vec::new();
        for j in 0..factor.n() {
            if let Err(row) =
                self.split_column(factor, j, &mut segs, |unit, ids| owner[ids].fill(unit))
            {
                panic!("row {row} of column {j} is outside the partition's layout");
            }
        }
        owner
    }

    /// Replaces `out` with the *ownership segmentation* of column `j`:
    /// disjoint row intervals in ascending order, each tagged with the
    /// unit that owns every stored entry `(i, j)` with `i` in the
    /// interval. Together the segments cover all rows `i >= j` that can
    /// hold a stored entry of column `j` (the first segment may extend
    /// above `j`). Derived from the cluster layout into the caller's
    /// scratch, with no table of every column.
    pub(crate) fn ownership_of(&self, j: usize, out: &mut Vec<(Interval, u32)>) {
        out.clear();
        self.ownership_in(self.cluster_of(j), j, out);
    }

    /// Appends the ownership segmentation of column `j`, in cluster
    /// `cid`, to `out`, derived from the retained layout tables every
    /// ownership view is read from.
    pub(crate) fn ownership_in(&self, cid: usize, j: usize, out: &mut Vec<(Interval, u32)>) {
        debug_assert!(self.clusters[cid].cols.contains(j));
        match &self.layouts[cid] {
            ClusterLayout::Single { unit } => {
                out.push((Interval::new(j, self.col_cluster.len() - 1), *unit));
            }
            ClusterLayout::Strip(strip) => {
                let tri = &strip.tri_chunks;
                let jc = tri.partition_point(|c| c.hi < j);
                out.push((tri[jc], strip.tri_unit(jc)));
                for (r, &chunk) in tri.iter().enumerate().skip(jc + 1) {
                    out.push((chunk, strip.tri_rect_unit(r, jc)));
                }
                for g in &strip.rects {
                    let c = g.col_chunks.partition_point(|cc| cc.hi < j);
                    debug_assert!(g.col_chunks[c].contains(j));
                    let pc = g.col_chunks.len();
                    for (r, rc) in g.row_chunks.iter().enumerate() {
                        out.push((*rc, g.first_unit + (r * pc + c) as u32));
                    }
                }
            }
        }
    }

    /// Calls `f` once for every unit block that owns an update target, in
    /// a column up to `last_col`, of a source column whose strict-lower
    /// row set `S` is the union of `runs` (ascending, disjoint; labels are
    /// the caller's). The targets are the clique
    /// `{(i, j) : i, j ∈ S, i >= j}`, so these are exactly the units
    /// whose row extent meets `S` and whose column extent meets
    /// `S ∩ [0, last_col]`; they are reported in ascending unit-id order.
    /// `last_col` must be the last column of a cluster (or anything from
    /// the last row of `S` up, for no limit).
    ///
    /// The walk follows the hits, not the layout: a cluster is entered
    /// only through a column in `S`, each chunk axis of a strip (the
    /// triangle's diagonal chunks; a below-rectangle's row and column
    /// chunks) is split against `S` once, and the units reported are the
    /// hit-row × hit-column chunk products. Rectangles no run of `S`
    /// reaches are skipped by binary search, so the cost is
    /// `O(runs + pieces + units reported)`.
    pub fn for_each_update_target(
        &self,
        runs: &[TaggedRun],
        last_col: usize,
        scratch: &mut TargetScratch,
        mut f: impl FnMut(UpdateTarget<'_>),
    ) {
        let Some((first, _)) = runs.first() else {
            return;
        };
        let mut col = first.lo;
        let mut ri = 0; // first run reaching `col`
        let mut cid = self.cluster_of(col);
        while col <= last_col {
            if self.clusters[cid].cols.hi < col {
                // Usually the next cluster; else found in O(1).
                cid = if self.clusters[cid + 1].cols.hi >= col {
                    cid + 1
                } else {
                    self.cluster_of(col)
                };
            }
            let cols = self.clusters[cid].cols;
            debug_assert!(cols.hi <= last_col, "last_col splits a cluster");
            match &self.layouts[cid] {
                &ClusterLayout::Single { unit } => f(UpdateTarget::Column { unit, col, run: ri }),
                layout => strip_targets(layout, cols, &runs[ri..], scratch, &mut f),
            }
            while ri < runs.len() && runs[ri].0.hi <= cols.hi {
                ri += 1;
            }
            let Some((run, _)) = runs.get(ri) else { return };
            col = run.lo.max(cols.hi + 1);
        }
    }

    /// The cluster holding column `col`.
    #[inline]
    fn cluster_of(&self, col: usize) -> usize {
        self.col_cluster[col] as usize
    }

    /// Number of columns partitioned.
    pub fn num_cols(&self) -> usize {
        self.col_cluster.len()
    }

    /// Number of unit blocks.
    pub fn num_units(&self) -> usize {
        self.units.len()
    }

    /// Total work across all units (equals the factor's `paper_work`).
    pub fn total_work(&self) -> usize {
        self.units.iter().map(|u| u.work).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    #[test]
    fn chunks_tile_the_extent() {
        let e = Interval::new(3, 12); // width 10
        for t in 1..=10 {
            let cs = chunks(e, t);
            assert_eq!(cs.len(), t);
            assert_eq!(cs[0].lo, 3);
            assert_eq!(cs.last().unwrap().hi, 12);
            for w in cs.windows(2) {
                assert_eq!(w[0].hi + 1, w[1].lo);
            }
            // Near-equal: sizes differ by at most 1.
            let sizes: Vec<usize> = cs.iter().map(Interval::len).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1);
        }
    }

    #[test]
    fn triangle_chunk_count_respects_grain() {
        // w=6 (21 elements), grain 4 => pd = 5 => t(t+1)/2 <= 5 => t = 2.
        assert_eq!(triangle_chunk_count(6, 4), 2);
        // grain 1 => pd = 21 => t = 5 (5*6/2 = 15 <= 21, 6*7/2 = 21 <= 21 => t = 6).
        assert_eq!(triangle_chunk_count(6, 1), 6);
        // grain larger than block => single unit.
        assert_eq!(triangle_chunk_count(6, 100), 1);
        assert_eq!(triangle_chunk_count(1, 1), 1);
    }

    #[test]
    fn rectangle_grid_respects_grain_and_dims() {
        // 4x6 = 24 elements, grain 4 => pd = 6.
        let (pr, pc) = rectangle_grid(4, 6, 4);
        assert!(pr * pc <= 6);
        assert!(pr <= 4 && pc <= 6);
        assert!(pr * pc >= 4, "should use most of the budget");
        // Grain bigger than the block: single unit.
        assert_eq!(rectangle_grid(3, 3, 100), (1, 1));
        // Degenerate 1-row rectangle splits along columns only.
        let (pr, pc) = rectangle_grid(1, 8, 2);
        assert_eq!(pr, 1);
        assert!(pc <= 4);
    }

    #[test]
    fn a_single_column_layout_is_sixteen_bytes() {
        // One per single-column cluster: the strip tables stay boxed.
        assert_eq!(size_of::<ClusterLayout>(), 16);
    }

    #[test]
    fn every_entry_is_owned_and_counts_match() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let total: usize = part.units.iter().map(|u| u.elements).sum();
        assert_eq!(total, f.num_entries());
        assert_eq!(part.total_work(), f.paper_work());
    }

    #[test]
    fn ownership_is_geometrically_consistent() {
        let p = gen::lap9(9, 9);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        for j in 0..f.n() {
            for &i in f.col(j) {
                let u = &part.units[part.unit_of(&f, i, j)];
                match &u.shape {
                    UnitShape::Column { col } => assert_eq!(*col, j),
                    UnitShape::Triangle { extent } => {
                        assert!(extent.contains(i) && extent.contains(j));
                    }
                    UnitShape::Rectangle { cols, rows } => {
                        assert!(cols.contains(j) && rows.contains(i));
                    }
                }
            }
            let u = &part.units[part.unit_of(&f, j, j)];
            match &u.shape {
                UnitShape::Column { col } => assert_eq!(*col, j),
                UnitShape::Triangle { extent } => assert!(extent.contains(j)),
                UnitShape::Rectangle { .. } => panic!("diagonal entry in a rectangle"),
            }
        }
    }

    #[test]
    fn units_respect_grain_size_where_divisible() {
        // With grain g, sub-blocks of dense regions larger than g must
        // hold at least... the paper guarantees *at most Pd* units, i.e.
        // average unit size >= g. Check per dense block via unit count.
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        for g in [4, 25] {
            let part = Partition::build(&f, &PartitionParams::with_grain(g));
            // Group units by (cluster, shape region) is overkill; instead
            // check the global invariant for triangles: a triangle of
            // width w contributes at most max(1, area/g) units.
            use std::collections::HashMap;
            let mut per_cluster: HashMap<usize, usize> = HashMap::new();
            for u in &part.units {
                *per_cluster.entry(u.cluster).or_default() += 1;
            }
            for cl in &part.clusters {
                if let ClusterKind::Strip { rect_rows } = &cl.kind {
                    let w = cl.width();
                    let tri_area = w * (w + 1) / 2;
                    let mut budget = (tri_area / g).max(1);
                    for rr in rect_rows {
                        budget += (rr.len() * w / g).max(1);
                    }
                    assert!(
                        per_cluster[&cl.id] <= budget,
                        "cluster {} has {} units for budget {}",
                        cl.id,
                        per_cluster[&cl.id],
                        budget
                    );
                }
            }
        }
    }

    #[test]
    fn larger_grain_gives_fewer_units() {
        let p = gen::lap9(15, 15);
        let f = factor_of(&p);
        let small = Partition::build(&f, &PartitionParams::with_grain(4));
        let large = Partition::build(&f, &PartitionParams::with_grain(25));
        assert!(
            large.num_units() <= small.num_units(),
            "g=25 made more units ({}) than g=4 ({})",
            large.num_units(),
            small.num_units()
        );
    }

    #[test]
    fn column_partition_is_one_unit_per_column() {
        let p = gen::lap9(6, 6);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        assert_eq!(part.num_units(), 36);
        for (j, u) in part.units.iter().enumerate() {
            assert_eq!(u.shape, UnitShape::Column { col: j });
            // Column j owns its diagonal + strict-lower entries.
            assert_eq!(u.elements, 1 + f.col_count(j));
        }
        assert_eq!(part.total_work(), f.paper_work());
    }

    #[test]
    fn unit_ids_are_scan_ordered() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        for (k, u) in part.units.iter().enumerate() {
            assert_eq!(u.id, k);
        }
        // Cluster ids are non-decreasing along the unit list.
        for w in part.units.windows(2) {
            assert!(w[0].cluster <= w[1].cluster);
        }
    }

    /// Maximal runs of an ascending row list, each labelled with its
    /// ordinal.
    fn runs_of(rows: &[usize]) -> Vec<TaggedRun> {
        spfactor_interval::runs_of_sorted(rows)
            .into_iter()
            .zip(0..)
            .collect()
    }

    /// `runs ∩ extent`, labels kept.
    fn clip(runs: &[TaggedRun], extent: Interval) -> Vec<TaggedRun> {
        runs.iter()
            .filter_map(|(r, tag)| Some((r.intersection(&extent)?, *tag)))
            .collect()
    }

    /// What the query reports for `runs`: `(unit, row pieces, column
    /// pieces)`, a column unit's rows being the suffix left to the caller.
    fn update_targets(
        part: &Partition,
        runs: &[TaggedRun],
        last_col: usize,
    ) -> Vec<(u32, Vec<TaggedRun>, Vec<TaggedRun>)> {
        let mut scratch = TargetScratch::default();
        let mut got = Vec::new();
        part.for_each_update_target(runs, last_col, &mut scratch, |t| {
            got.push(match t {
                UpdateTarget::Column { unit, col, run } => {
                    assert!(runs[run].0.contains(col));
                    (unit, Vec::new(), vec![(Interval::point(col), runs[run].1)])
                }
                UpdateTarget::Triangle { unit, pieces } => (unit, pieces.to_vec(), pieces.to_vec()),
                UpdateTarget::Rectangle { unit, rows, cols } => {
                    (unit, rows.to_vec(), cols.to_vec())
                }
            })
        });
        got
    }

    /// Every unit of `part` in columns up to `last_col` whose row and
    /// column extents both meet `runs`, with the exact pieces, in unit
    /// order.
    fn brute_force_targets(
        part: &Partition,
        runs: &[TaggedRun],
        last_col: usize,
    ) -> Vec<(u32, Vec<TaggedRun>, Vec<TaggedRun>)> {
        // `before[r]` rows of the set lie below row `r`: an extent meets
        // the set iff the count grows across it.
        let n = part.clusters.last().map_or(0, |c| c.cols.hi + 1);
        let mut before = vec![0u32; n + 2];
        for (run, _) in runs {
            before[run.lo + 1..=run.hi + 1].fill(1);
        }
        for r in 1..before.len() {
            before[r] += before[r - 1];
        }
        let meets = |iv: Interval| before[iv.hi + 1] > before[iv.lo];
        part.units
            .iter()
            .filter(|u| u.shape.col_extent().hi <= last_col && meets(u.shape.col_extent()))
            .filter_map(|u| {
                let cols = clip(runs, u.shape.col_extent());
                if matches!(u.shape, UnitShape::Column { .. }) {
                    return Some((u.id as u32, Vec::new(), cols));
                }
                let rows = clip(runs, u.shape.row_extent());
                (!rows.is_empty()).then_some((u.id as u32, rows, cols))
            })
            .collect()
    }

    #[test]
    fn update_targets_match_brute_force_on_paper_matrices() {
        for m in gen::paper::all() {
            let f = factor_of(&m.pattern);
            // The column limit is exercised on the wrap layout and one
            // block partition only (the limit stops the cluster loop; the
            // strip walk under it is the same).
            let mut parts = vec![(Partition::columns(&f), "wrap".to_string(), true)];
            for grain in [4usize, 25] {
                for relax in 0..=3 {
                    let mut params = PartitionParams::with_grain(grain);
                    params.relax_zeros = relax;
                    let what = format!("g={grain} relax={relax}");
                    let limited = grain == 4 && relax == 0;
                    parts.push((Partition::build(&f, &params), what, limited));
                }
            }
            for (part, what, limited) in &parts {
                for k in 0..f.n() {
                    let runs = runs_of(f.col(k));
                    // No limit, then the cluster of the column's middle row.
                    let mid = f.col(k).get(f.col_count(k) / 2).copied().unwrap_or(k);
                    let cluster = part.clusters.partition_point(|c| c.cols.hi < mid);
                    let limits = [usize::MAX, part.clusters[cluster].cols.hi];
                    for &last_col in &limits[..1 + usize::from(*limited)] {
                        assert_eq!(
                            update_targets(part, &runs, last_col),
                            brute_force_targets(part, &runs, last_col),
                            "{} {what}: source column {k} up to {last_col}",
                            m.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn update_targets_accept_arbitrary_run_sets() {
        // Not a factor column: runs straddling cluster and rectangle
        // boundaries, adjacent runs, and runs falling into the gaps
        // between rectangles.
        let f = factor_of(&gen::lap9(12, 12));
        let mut params = PartitionParams::with_grain(4);
        params.min_cluster_width = 2;
        let part = Partition::build(&f, &params);
        let n = f.n();
        for (start, len, gap) in [
            (0usize, 3usize, 2usize),
            (5, 9, 1),
            (1, 1, 1),
            (2, 4, 0),
            (40, 30, 7),
        ] {
            let mut runs = Vec::new();
            let mut lo = start;
            while lo < n {
                runs.push((Interval::new(lo, (lo + len - 1).min(n - 1)), lo as u32));
                lo += len + gap;
            }
            assert_eq!(
                update_targets(&part, &runs, usize::MAX),
                brute_force_targets(&part, &runs, usize::MAX),
                "runs of {len} from {start} every {}",
                len + gap
            );
        }
    }

    #[test]
    fn column_ownership_matches_unit_of() {
        // The flat segmentation the work tally walks, the derived entry
        // map and `unit_of` must agree at every stored entry, for
        // several grains and the wrap (per-column) layout.
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let mut parts: Vec<Partition> = [1usize, 4, 25]
            .iter()
            .map(|&g| Partition::build(&f, &PartitionParams::with_grain(g)))
            .collect();
        parts.push(Partition::columns(&f));
        for part in &parts {
            let segmentation = part.segmentation();
            let owner = part.ownership(&f);
            for j in 0..f.n() {
                let segs = segmentation.col(j);
                for w in segs.windows(2) {
                    assert!(w[0].0.hi < w[1].0.lo, "segments overlap or misorder");
                }
                let lookup = |i: usize| -> usize {
                    let s = segs.partition_point(|(iv, _)| iv.hi < i);
                    assert!(segs[s].0.contains(i), "row {i} uncovered in col {j}");
                    segs[s].1 as usize
                };
                assert_eq!(lookup(j), part.unit_of(&f, j, j), "diag ({j},{j})");
                assert_eq!(lookup(j), owner[j] as usize, "diag ({j},{j})");
                for &i in f.col(j) {
                    assert_eq!(lookup(i), part.unit_of(&f, i, j), "({i},{j})");
                    let id = f.entry_id(i, j).unwrap();
                    assert_eq!(lookup(i), owner[id] as usize, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn fig3_style_triangle_split() {
        // Build a matrix whose factor has one big dense tail cluster and
        // verify the triangle splits into t sub-triangles and t(t-1)/2
        // interior rectangles.
        let mut e = Vec::new();
        for a in 0..8usize {
            for b in (a + 1)..8 {
                e.push((b, a));
            }
        }
        let p = SymmetricPattern::from_edges(8, e);
        let f = SymbolicFactor::from_pattern(&p);
        let mut params = PartitionParams::with_grain(4);
        params.min_cluster_width = 2;
        let part = Partition::build(&f, &params);
        assert_eq!(part.clusters.len(), 1);
        let tris = part
            .units
            .iter()
            .filter(|u| matches!(u.shape, UnitShape::Triangle { .. }))
            .count();
        let rects = part
            .units
            .iter()
            .filter(|u| matches!(u.shape, UnitShape::Rectangle { .. }))
            .count();
        assert_eq!(rects, tris * (tris - 1) / 2);
        // 8x8 triangle = 36 elements, grain 4 => pd = 9 => t = 3 (3*4/2 = 6 <= 9).
        assert_eq!(tris, 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spfactor_matrix::gen::random_geometric;
    use spfactor_order::{order, Ordering};

    fn arb_factor() -> impl Strategy<Value = SymbolicFactor> {
        (5usize..80, 2.0f64..7.0, any::<u64>()).prop_map(|(n, deg, seed)| {
            let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
            let p = random_geometric(n, r, seed);
            let perm = order(&p, Ordering::paper_default());
            SymbolicFactor::from_pattern(&p.permute(&perm))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every factor entry is owned by exactly one unit whose geometry
        /// contains it, for arbitrary structures and parameters.
        #[test]
        fn prop_ownership_geometry(
            f in arb_factor(),
            grain in 1usize..30,
            width in 1usize..8,
            relax in 0usize..3,
        ) {
            let params = PartitionParams {
                grain,
                min_cluster_width: width,
                relax_zeros: relax,
            };
            let part = Partition::build(&f, &params);
            let covered: usize = part.units.iter().map(|u| u.elements).sum();
            prop_assert_eq!(covered, f.num_entries());
            prop_assert_eq!(part.total_work(), f.paper_work());
            for j in 0..f.n() {
                for &i in f.col(j) {
                    let u = &part.units[part.unit_of(&f, i, j)];
                    match &u.shape {
                        UnitShape::Column { col } => prop_assert_eq!(*col, j),
                        UnitShape::Triangle { extent } => {
                            prop_assert!(extent.contains(i) && extent.contains(j))
                        }
                        UnitShape::Rectangle { cols, rows } => {
                            prop_assert!(cols.contains(j) && rows.contains(i))
                        }
                    }
                }
            }
        }

        /// Unit ids are dense and scan-ordered; clusters tile the columns.
        #[test]
        fn prop_scan_order_and_cluster_tiling(f in arb_factor(), grain in 1usize..20) {
            let part = Partition::build(&f, &PartitionParams::with_grain(grain));
            for (k, u) in part.units.iter().enumerate() {
                prop_assert_eq!(u.id, k);
            }
            let mut next = 0usize;
            for c in &part.clusters {
                prop_assert_eq!(c.cols.lo, next);
                next = c.cols.hi + 1;
            }
            prop_assert_eq!(next, f.n());
        }
    }
}
