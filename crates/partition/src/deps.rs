//! Block-level dependency analysis (§3.3) — the ten categories.
//!
//! Every element-level update `L(i,j) -= L(i,k) · L(j,k)` involves up to
//! two *source* unit blocks (those owning `(i,k)` and `(j,k)`) and one
//! *target* (owning `(i,j)`). Classified by the shapes of the **external**
//! sources (sources other than the target itself) and of the target, every
//! operation falls into exactly one of the paper's ten categories:
//!
//! | # | external sources      | target    |
//! |---|-----------------------|-----------|
//! | 1 | one column            | column    |
//! | 2 | one column            | triangle  |
//! | 3 | one column            | rectangle |
//! | 4 | one triangle          | rectangle |
//! | 5 | a triangle + a rect   | rectangle |
//! | 6 | one rectangle         | column    |
//! | 7 | two rectangles        | column    |
//! | 8 | one rectangle         | triangle  |
//! | 9 | two rectangles        | triangle  |
//! |10 | two rectangles        | rectangle |
//!
//! (Category 10 also covers the degenerate case where both source
//! elements lie in the *same* rectangle yet the target is a different
//! rectangle; the paper's template allows `R1 = R2`.) Scaling operations —
//! a diagonal element scaling the strict-lower entries of its column —
//! generate dependencies too and are classified with the same table.
//!
//! The paper computes these dependencies with interval-tree intersection
//! tests over block extents; [`category_of`] exposes the same geometric
//! classification, and [`dependencies`] builds the exact unit-level
//! dependency graph from the element operations.

use crate::block::UnitShape;
use crate::units::Partition;
use spfactor_symbolic::{ops, SymbolicFactor};
use spfactor_trace::Current;
use std::sync::OnceLock;

/// The paper's ten dependency categories (§3.3, Figure 4).
///
/// Each category names the §3 geometry of one update template: the
/// shapes of the *external* source unit blocks supplying `L(i,k)` and
/// `L(j,k)`, and the shape of the target block owning `L(i,j)`. The
/// paper's classification is exhaustive for valid partitions — every
/// cross-block operation of the factorization falls into exactly one row:
///
/// | # | variant | §3 geometry of the update |
/// |---|---------|---------------------------|
/// | 1 | [`ColUpdatesCol`](Self::ColUpdatesCol) | both source elements lie in one single-column unit `c_k`; the target element is in a later column unit `c_j` (the classic column-Cholesky dependency of Fig. 1) |
/// | 2 | [`ColUpdatesTri`](Self::ColUpdatesTri) | both source elements in a column unit; the target `(i,j)` falls inside a diagonal sub-triangle of a strip, `i` and `j` both within the triangle's extent |
/// | 3 | [`ColUpdatesRect`](Self::ColUpdatesRect) | both source elements in a column unit; the target falls in a sub-rectangle — `j` in the rectangle's column extent, `i` in its row extent below the strip diagonal |
/// | 4 | [`TriUpdatesRect`](Self::TriUpdatesRect) | the `(j,k)` element lies in a sub-triangle of an earlier strip and `(i,k)` in the *same* strip's below-rectangle sharing its columns; the update lands in a rectangle of a later cluster |
/// | 5 | [`TriRectUpdateRect`](Self::TriRectUpdateRect) | like 4, but `(j,k)` and `(i,k)` live in two *distinct* units — one triangle plus one rectangle of an earlier strip — jointly updating a rectangle |
/// | 6 | [`RectUpdatesCol`](Self::RectUpdatesCol) | both source elements in one below-diagonal sub-rectangle (rows `i` and `j` inside its row extent); the target is a single-column unit `c_j` |
/// | 7 | [`TwoRectsUpdateCol`](Self::TwoRectsUpdateCol) | `(i,k)` and `(j,k)` in two different sub-rectangles of the same source strip (their row extents cover `i` and `j` separately); the target is a column unit |
/// | 8 | [`RectUpdatesTri`](Self::RectUpdatesTri) | both source elements in one sub-rectangle whose row extent meets a later strip's diagonal block; the target is that strip's sub-triangle |
/// | 9 | [`TwoRectsUpdateTri`](Self::TwoRectsUpdateTri) | two distinct sub-rectangles supply `(i,k)` and `(j,k)`; the target `(i,j)` sits in a sub-triangle of a later strip |
/// |10 | [`TwoRectsUpdateRect`](Self::TwoRectsUpdateRect) | two sub-rectangles (the template admits `R1 = R2`) update a sub-rectangle of a later strip — the dominant category on large grids |
///
/// The exact builder ([`dependencies`]) tallies how many element
/// operations fall in each category, exposed via
/// [`DepGraph::ops_in_category`] and the `partition.deps.category.<n>`
/// metrics documented in `docs/METRICS.md`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DepCategory {
    /// 1. A column updates a column — both sources in one column unit,
    ///    target in a later column unit (Fig. 1's column dependency).
    ColUpdatesCol,
    /// 2. A column updates a triangle — sources in a column unit, target
    ///    inside a strip's diagonal sub-triangle.
    ColUpdatesTri,
    /// 3. A column updates a rectangle — sources in a column unit, target
    ///    in a below-diagonal sub-rectangle of a strip.
    ColUpdatesRect,
    /// 4. A triangle updates a rectangle — `(j,k)` in a sub-triangle,
    ///    `(i,k)` directly below it in the same strip, target a rectangle.
    TriUpdatesRect,
    /// 5. A triangle and a rectangle update a rectangle — the two source
    ///    elements split across a triangle and a rectangle of one strip.
    TriRectUpdateRect,
    /// 6. A rectangle updates a column — both sources in one
    ///    sub-rectangle, target a single-column unit.
    RectUpdatesCol,
    /// 7. Two rectangles update a column — sources in two different
    ///    sub-rectangles of the source strip, target a column unit.
    TwoRectsUpdateCol,
    /// 8. A rectangle updates a triangle — both sources in one
    ///    sub-rectangle whose rows meet a later strip's diagonal block.
    RectUpdatesTri,
    /// 9. Two rectangles update a triangle — sources in two
    ///    sub-rectangles, target a diagonal sub-triangle.
    TwoRectsUpdateTri,
    /// 10. Two rectangles update a rectangle (`R1 = R2` allowed) — the
    ///     dominant category on large mesh problems.
    TwoRectsUpdateRect,
}

impl DepCategory {
    /// The paper's 1-based category number.
    pub fn number(&self) -> usize {
        match self {
            DepCategory::ColUpdatesCol => 1,
            DepCategory::ColUpdatesTri => 2,
            DepCategory::ColUpdatesRect => 3,
            DepCategory::TriUpdatesRect => 4,
            DepCategory::TriRectUpdateRect => 5,
            DepCategory::RectUpdatesCol => 6,
            DepCategory::TwoRectsUpdateCol => 7,
            DepCategory::RectUpdatesTri => 8,
            DepCategory::TwoRectsUpdateTri => 9,
            DepCategory::TwoRectsUpdateRect => 10,
        }
    }

    /// All categories in paper order.
    pub fn all() -> [DepCategory; 10] {
        [
            DepCategory::ColUpdatesCol,
            DepCategory::ColUpdatesTri,
            DepCategory::ColUpdatesRect,
            DepCategory::TriUpdatesRect,
            DepCategory::TriRectUpdateRect,
            DepCategory::RectUpdatesCol,
            DepCategory::TwoRectsUpdateCol,
            DepCategory::RectUpdatesTri,
            DepCategory::TwoRectsUpdateTri,
            DepCategory::TwoRectsUpdateRect,
        ]
    }
}

/// Classifies a dependency by the shapes of its external sources and its
/// target. `externals` holds one or two **distinct** source units (as
/// shapes); order is irrelevant. Returns `None` for combinations that
/// cannot arise from Cholesky updates on a valid partition (e.g. a
/// triangle updating a column).
pub fn category_of(externals: &[&UnitShape], target: &UnitShape) -> Option<DepCategory> {
    use UnitShape as S;
    let is_col = |s: &UnitShape| matches!(s, S::Column { .. });
    let is_tri = |s: &UnitShape| matches!(s, S::Triangle { .. });
    let is_rect = |s: &UnitShape| matches!(s, S::Rectangle { .. });
    match externals {
        [s] if is_col(s) => match target {
            S::Column { .. } => Some(DepCategory::ColUpdatesCol),
            S::Triangle { .. } => Some(DepCategory::ColUpdatesTri),
            S::Rectangle { .. } => Some(DepCategory::ColUpdatesRect),
        },
        [s] if is_tri(s) => match target {
            S::Rectangle { .. } => Some(DepCategory::TriUpdatesRect),
            _ => None,
        },
        [s] if is_rect(s) => match target {
            S::Column { .. } => Some(DepCategory::RectUpdatesCol),
            S::Triangle { .. } => Some(DepCategory::RectUpdatesTri),
            // Both source elements in one rectangle, target a different
            // rectangle: the paper's template 10 with R1 = R2.
            S::Rectangle { .. } => Some(DepCategory::TwoRectsUpdateRect),
        },
        [a, b] => {
            let (ta, tb) = (is_tri(a), is_tri(b));
            let (ra, rb) = (is_rect(a), is_rect(b));
            if (ta && rb) || (ra && tb) {
                match target {
                    S::Rectangle { .. } => Some(DepCategory::TriRectUpdateRect),
                    _ => None,
                }
            } else if ra && rb {
                match target {
                    S::Column { .. } => Some(DepCategory::TwoRectsUpdateCol),
                    S::Triangle { .. } => Some(DepCategory::TwoRectsUpdateTri),
                    S::Rectangle { .. } => Some(DepCategory::TwoRectsUpdateRect),
                }
            } else {
                // Two distinct columns, two distinct triangles, or
                // col+something: impossible — a column unit owns its whole
                // column, and two sub-triangles never share a column.
                None
            }
        }
        _ => None,
    }
}

/// The unit-level dependency graph of a partition.
///
/// It stores what block allocation reads: the predecessor lists, in
/// storage of exactly their length, and the per-category operation
/// counts. The successor lists, which only the schedule executors and the
/// timed simulator walk, are derived from the predecessors on the first
/// [`succs`](Self::succs) call and kept.
///
/// Equality compares the predecessor sets and the per-category operation
/// counts — the successors are a function of the predecessors — which is
/// what the engine-equivalence tests pin between the element oracle and
/// the sweep engine.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// Predecessor lists: unit `u` reads the data of the sorted, distinct
    /// units of its list. The lists are laid out a batch of units at a
    /// time — the clusters the sweep has just passed — back to back in
    /// unit order, one allocation of exactly their length per batch.
    chunks: Box<[Box<[u32]>]>,
    /// Unit `u`'s list starts at `at[u] = (chunk, offset)` and ends where
    /// the next unit's starts in the same chunk, else at the chunk's end;
    /// `at[units]` names no chunk.
    at: Box<[(u32, u32)]>,
    /// Total length of the lists.
    edges: usize,
    /// Update-operation counts per category (paper numbering 1..=10 at
    /// index `number - 1`).
    category_ops: [usize; 10],
    /// Successor lists, same layout: the units that read data of `u`.
    succ: OnceLock<(Vec<usize>, Vec<u32>)>,
}

impl PartialEq for DepGraph {
    fn eq(&self, other: &Self) -> bool {
        self.num_units() == other.num_units()
            && (0..self.num_units()).all(|u| self.preds(u) == other.preds(u))
            && self.category_ops == other.category_ops
    }
}

impl Eq for DepGraph {}

impl DepGraph {
    /// Predecessor units of `u` (sorted, distinct).
    pub fn preds(&self, u: usize) -> &[u32] {
        let ((chunk, start), (next, end)) = (self.at[u], self.at[u + 1]);
        let ids = &self.chunks[chunk as usize];
        let end = if next == chunk {
            end as usize
        } else {
            ids.len()
        };
        &ids[start as usize..end]
    }

    /// Successor units of `u` (sorted, distinct). The first call on a
    /// graph derives the whole successor table, transposed from the
    /// predecessors by counting.
    pub fn succs(&self, u: usize) -> &[u32] {
        let (start, ids) = self.succ.get_or_init(|| {
            let nu = self.num_units();
            let mut start = vec![0usize; nu + 1];
            for &s in self.chunks.iter().flatten() {
                start[s as usize + 1] += 1;
            }
            for u in 0..nu {
                start[u + 1] += start[u];
            }
            // Scattering targets in ascending order leaves every successor
            // list sorted and distinct, like the predecessor lists it
            // mirrors. `start[s]` is the cursor of list `s`, so it ends at
            // the start of list `s + 1`; one shift restores it.
            let mut ids = vec![0u32; self.edges];
            for u in 0..nu {
                for &s in self.preds(u) {
                    ids[start[s as usize]] = u as u32;
                    start[s as usize] += 1;
                }
            }
            start.copy_within(0..nu, 1);
            start[0] = 0;
            (start, ids)
        });
        &ids[start[u]..start[u + 1]]
    }

    /// Number of units.
    pub fn num_units(&self) -> usize {
        self.at.len() - 1
    }

    /// Units with no predecessors — the paper's *independent* units,
    /// allocated first by the scheduler.
    pub fn independent_units(&self) -> Vec<usize> {
        (0..self.num_units())
            .filter(|&u| self.preds(u).is_empty())
            .collect()
    }

    /// Update-operation count for a category.
    pub fn ops_in_category(&self, c: DepCategory) -> usize {
        self.category_ops[c.number() - 1]
    }

    /// Total dependency edges.
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Heap bytes of the predecessor lists, all exactly sized: 4 per id,
    /// 8 per unit (and one more) where its list starts, 16 per batch's
    /// allocation (the `heap.deps.preds.bytes` gauge).
    pub fn pred_bytes(&self) -> usize {
        std::mem::size_of_val::<[Box<[u32]>]>(&self.chunks)
            + std::mem::size_of_val::<[(u32, u32)]>(&self.at)
            + 4 * self.edges
    }
}

/// Lays out a graph's predecessor lists a batch of units at a time, in
/// unit order, from raw (unsorted, possibly duplicated) lists. Shared by
/// the element and sweep builders, so both produce identical graphs from
/// identical edge sets.
///
/// A batch's lists are sorted, deduplicated and trimmed where they stand
/// (so the copy never sits beside their growth room), then copied into
/// one allocation of exactly their total length. No storage grows by
/// doubling: the table's heap is its ids, 8 bytes a unit laid out and 16
/// a batch at every moment, and the lists a reader walks in unit order
/// lie back to back.
pub(crate) struct PredTable {
    units: usize,
    chunks: Vec<Box<[u32]>>,
    at: Vec<(u32, u32)>,
    edges: usize,
}

impl PredTable {
    /// A table for `num_units` lists laid out in at most `max_batches`
    /// batches.
    pub(crate) fn new(num_units: usize, max_batches: usize) -> Self {
        PredTable {
            units: num_units,
            chunks: Vec::with_capacity(max_batches),
            at: Vec::with_capacity(num_units + 1),
            edges: 0,
        }
    }

    /// Units laid out so far: the next batch starts with this unit.
    pub(crate) fn len(&self) -> usize {
        self.at.len()
    }

    /// Lays out `lists` as the next units' predecessors, each sorted and
    /// deduplicated, and frees them.
    pub(crate) fn push_batch(&mut self, lists: &mut [Vec<u32>]) {
        let mut total = 0;
        for list in lists.iter_mut() {
            list.sort_unstable();
            list.dedup();
            list.shrink_to_fit();
            total += list.len();
        }
        let chunk_id = u32::try_from(self.chunks.len()).expect("fewer than 2^32 batches");
        let mut chunk = Vec::with_capacity(total);
        for list in lists {
            let start = u32::try_from(chunk.len()).expect("a batch holds fewer than 2^32 ids");
            self.at.push((chunk_id, start));
            chunk.extend_from_slice(list);
            *list = Vec::new();
        }
        self.edges += total;
        self.chunks.push(chunk.into_boxed_slice());
    }

    /// The graph, once every unit's list is laid out.
    pub(crate) fn finish(mut self, category_ops: [usize; 10]) -> DepGraph {
        assert_eq!(self.len(), self.units, "a unit's list was not laid out");
        let past = u32::try_from(self.chunks.len()).expect("fewer than 2^32 batches");
        self.at.push((past, 0));
        DepGraph {
            chunks: self.chunks.into_boxed_slice(),
            at: self.at.into_boxed_slice(),
            edges: self.edges,
            category_ops,
            succ: OnceLock::new(),
        }
    }
}

/// Builds the exact dependency graph of `partition` by enumerating every
/// update and scaling operation of the factorization, and tallies the
/// paper's ten categories.
///
/// Under a recorder scope: times the construction under the span
/// `partition.deps` and records the graph's shape — edge count,
/// independent-unit count and the per-category operation histogram
/// `partition.deps.category.1` … `.10` (see `docs/METRICS.md`).
pub fn dependencies(factor: &SymbolicFactor, partition: &Partition) -> DepGraph {
    let rec = spfactor_trace::current();
    let (graph, pending) = rec.time("partition.deps", || enumerate(factor, partition));
    record_graph_stats(&graph, pending, &rec);
    graph
}

/// The element oracle itself: one visit per update and scaling operation.
/// Returns the graph and the bytes its raw lists held before layout.
fn enumerate(factor: &SymbolicFactor, partition: &Partition) -> (DepGraph, usize) {
    let nu = partition.num_units();
    let owner = partition.ownership(factor);
    let eid = |i: usize, j: usize| factor.entry_id(i, j).expect("factor entry");
    let mut pred_sets: Vec<Vec<u32>> = vec![Vec::new(); nu];
    let mut category_ops = [0usize; 10];

    let record = |srcs: [u32; 2],
                  nsrc: usize,
                  tgt: u32,
                  cats: &mut [usize; 10],
                  preds: &mut Vec<Vec<u32>>| {
        let mut ext = [0u32; 2];
        let mut ne = 0;
        for &s in &srcs[..nsrc] {
            if s != tgt && (ne == 0 || ext[0] != s) {
                ext[ne] = s;
                ne += 1;
            }
        }
        if ne == 0 {
            return;
        }
        for &s in &ext[..ne] {
            preds[tgt as usize].push(s);
        }
        let shapes: Vec<&UnitShape> = ext[..ne]
            .iter()
            .map(|&s| &partition.units[s as usize].shape)
            .collect();
        if let Some(c) = category_of(&shapes, &partition.units[tgt as usize].shape) {
            cats[c.number() - 1] += 1;
        }
    };

    ops::for_each_update(factor, |op| {
        let tgt = owner[eid(op.i, op.j)];
        let s1 = owner[eid(op.i, op.k)];
        let s2 = owner[eid(op.j, op.k)];
        let (srcs, nsrc) = if s1 == s2 {
            ([s1, 0], 1)
        } else {
            ([s1, s2], 2)
        };
        record(srcs, nsrc, tgt, &mut category_ops, &mut pred_sets);
    });
    ops::for_each_scaling(factor, |i, j| {
        let tgt = owner[eid(i, j)];
        let s = owner[eid(j, j)];
        record([s, 0], 1, tgt, &mut category_ops, &mut pred_sets);
    });

    let pending = 4 * pred_sets.iter().map(Vec::capacity).sum::<usize>();
    let mut table = PredTable::new(nu, 1);
    table.push_batch(&mut pred_sets);
    (table.finish(category_ops), pending)
}

/// Records a built graph's shape — the `partition.deps.edges` /
/// `partition.deps.independent_units` gauges and the per-category
/// operation counters `partition.deps.category.1` … `.10` — and the heap
/// its lists took — `heap.deps.preds.bytes` kept, `heap.deps.pending.bytes`
/// the most the raw lists not yet laid out held at once — identically for
/// every engine (see `docs/METRICS.md`).
pub(crate) fn record_graph_stats(graph: &DepGraph, pending_bytes: usize, rec: &Current) {
    if !rec.is_recording() {
        return;
    }
    rec.gauge("heap.deps.preds.bytes", graph.pred_bytes() as f64);
    rec.gauge("heap.deps.pending.bytes", pending_bytes as f64);
    rec.gauge("partition.deps.edges", graph.num_edges() as f64);
    rec.gauge(
        "partition.deps.independent_units",
        graph.independent_units().len() as f64,
    );
    for c in DepCategory::all() {
        rec.incr(
            &format!("partition.deps.category.{}", c.number()),
            graph.ops_in_category(c) as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionParams;
    use spfactor_interval::Interval;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    fn col() -> UnitShape {
        UnitShape::Column { col: 0 }
    }
    fn tri() -> UnitShape {
        UnitShape::Triangle {
            extent: Interval::new(0, 2),
        }
    }
    fn rect() -> UnitShape {
        UnitShape::Rectangle {
            cols: Interval::new(0, 2),
            rows: Interval::new(5, 6),
        }
    }

    /// One unit test per paper category (the Figure 4 cases).
    #[test]
    fn category_classification_covers_figure4() {
        use DepCategory::*;
        // (a)–(c): a column updates a column / triangle / rectangle.
        assert_eq!(category_of(&[&col()], &col()), Some(ColUpdatesCol));
        assert_eq!(category_of(&[&col()], &tri()), Some(ColUpdatesTri));
        assert_eq!(category_of(&[&col()], &rect()), Some(ColUpdatesRect));
        // (c2): a triangle updates a rectangle.
        assert_eq!(category_of(&[&tri()], &rect()), Some(TriUpdatesRect));
        // (d): a triangle and a rectangle update a rectangle.
        assert_eq!(
            category_of(&[&tri(), &rect()], &rect()),
            Some(TriRectUpdateRect)
        );
        assert_eq!(
            category_of(&[&rect(), &tri()], &rect()),
            Some(TriRectUpdateRect)
        );
        // (e): a rectangle updates a column.
        assert_eq!(category_of(&[&rect()], &col()), Some(RectUpdatesCol));
        // (f): two rectangles update a column.
        assert_eq!(
            category_of(&[&rect(), &rect()], &col()),
            Some(TwoRectsUpdateCol)
        );
        // (g): a rectangle updates a triangle.
        assert_eq!(category_of(&[&rect()], &tri()), Some(RectUpdatesTri));
        // (h): two rectangles update a triangle.
        assert_eq!(
            category_of(&[&rect(), &rect()], &tri()),
            Some(TwoRectsUpdateTri)
        );
        // (i): two rectangles update a rectangle.
        assert_eq!(
            category_of(&[&rect(), &rect()], &rect()),
            Some(TwoRectsUpdateRect)
        );
    }

    #[test]
    fn impossible_combinations_are_rejected() {
        assert_eq!(category_of(&[&tri()], &col()), None);
        assert_eq!(category_of(&[&tri()], &tri()), None);
        assert_eq!(category_of(&[&tri(), &rect()], &col()), None);
        assert_eq!(category_of(&[&tri(), &rect()], &tri()), None);
        assert_eq!(category_of(&[&col(), &rect()], &rect()), None);
        assert_eq!(category_of(&[&tri(), &tri()], &rect()), None);
    }

    #[test]
    fn category_numbers_are_one_to_ten() {
        let nums: Vec<usize> = DepCategory::all().iter().map(|c| c.number()).collect();
        assert_eq!(nums, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn every_classified_op_lands_in_a_category() {
        // On a real partition every external dependency must classify —
        // the category table is complete for valid partitions.
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let g = dependencies(&f, &part);
        // Total classified ops equals total external ops. Re-count.
        let owner = part.ownership(&f);
        let mut external_ops = 0usize;
        ops::for_each_update(&f, |op| {
            let t = owner[f.entry_id(op.i, op.j).unwrap()];
            let s1 = owner[f.entry_id(op.i, op.k).unwrap()];
            let s2 = owner[f.entry_id(op.j, op.k).unwrap()];
            if s1 != t || s2 != t {
                external_ops += 1;
            }
        });
        ops::for_each_scaling(&f, |i, j| {
            let t = owner[f.entry_id(i, j).unwrap()];
            let s = owner[f.entry_id(j, j).unwrap()];
            if s != t {
                external_ops += 1;
            }
        });
        let classified: usize = DepCategory::all()
            .iter()
            .map(|&c| g.ops_in_category(c))
            .sum();
        assert_eq!(
            classified, external_ops,
            "some operations were unclassifiable"
        );
    }

    #[test]
    fn dependency_edges_point_backwards() {
        // A predecessor's cluster can never come after the target's
        // cluster... more precisely, a source element's column is < the
        // target's column, so preds have unit id <= target id except
        // within-column scaling. Check the weaker invariant: no self
        // edges and sorted distinct lists.
        let p = gen::lap9(8, 8);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let g = dependencies(&f, &part);
        for u in 0..g.num_units() {
            let preds = g.preds(u);
            assert!(preds.windows(2).all(|w| w[0] < w[1]));
            assert!(!preds.contains(&(u as u32)), "self dependency on {u}");
        }
    }

    #[test]
    fn succs_are_inverse_of_preds() {
        let p = gen::lap9(7, 7);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let g = dependencies(&f, &part);
        for u in 0..g.num_units() {
            for &s in g.preds(u) {
                assert!(g.succs(s as usize).contains(&(u as u32)));
            }
            for &t in g.succs(u) {
                assert!(g.preds(t as usize).contains(&(u as u32)));
            }
        }
    }

    #[test]
    fn independent_units_have_no_incoming_data() {
        let p = gen::lap9(9, 9);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let g = dependencies(&f, &part);
        let indep = g.independent_units();
        assert!(
            !indep.is_empty(),
            "a sparse factor must have leading independent units"
        );
        for u in indep {
            assert!(g.preds(u).is_empty());
        }
    }

    #[test]
    fn column_partition_deps_match_column_structure() {
        // In the per-column partition, unit j depends on unit k (k < j)
        // iff L(j,k) is a factor nonzero: exactly the column dependency of
        // Figure 1.
        let p = gen::lap9(5, 5);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let g = dependencies(&f, &part);
        for j in 0..f.n() {
            let preds: Vec<usize> = g.preds(j).iter().map(|&u| u as usize).collect();
            let mut expected: Vec<usize> = (0..j).filter(|&k| f.contains(j, k)).collect();
            expected.sort_unstable();
            assert_eq!(preds, expected, "column {j}");
        }
        // All dependencies in the column partition are column-updates-column.
        for c in DepCategory::all() {
            if c != DepCategory::ColUpdatesCol {
                assert_eq!(g.ops_in_category(c), 0, "{c:?}");
            }
        }
    }

    #[test]
    fn block_partition_uses_block_categories() {
        // A grid factor with strips must exhibit at least the
        // triangle/rectangle categories.
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        let mut params = PartitionParams::with_grain(4);
        params.min_cluster_width = 2;
        let part = Partition::build(&f, &params);
        let g = dependencies(&f, &part);
        assert!(g.ops_in_category(DepCategory::TriUpdatesRect) > 0);
        let rect_cats = g.ops_in_category(DepCategory::RectUpdatesCol)
            + g.ops_in_category(DepCategory::TwoRectsUpdateCol)
            + g.ops_in_category(DepCategory::RectUpdatesTri)
            + g.ops_in_category(DepCategory::TwoRectsUpdateTri)
            + g.ops_in_category(DepCategory::TwoRectsUpdateRect);
        assert!(rect_cats > 0, "no rectangle-source dependencies found");
    }
}
