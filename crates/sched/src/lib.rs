//! Processor allocation of unit blocks (§3.4).
//!
//! The scheduling process has two parts — allocating unit blocks to
//! processors and ordering work within each processor; like the paper,
//! this crate implements the first. Six allocators are provided, two at
//! the crate root and four in two modules:
//!
//! * [`block_allocation`] — the paper's locality-driven heuristic: a
//!   global round-robin pool `Pg` with a moving marker, a per-triangle set
//!   `Pa` that routes each unit to a processor that produced one of its
//!   inputs, and a work-sorted round-robin over the triangle's processors
//!   `Pt` for the rectangles below it;
//! * [`wrap_allocation`] — the classic wrap-mapped column scheme the paper
//!   compares against (column `j` on processor `j mod P`);
//! * [`alt`] — three simpler allocators (pure round-robin over blocks,
//!   greedy least-loaded, locality-first) used for the ablation studies
//!   in `DESIGN.md`;
//! * [`proportional`] — subtree-to-processor proportional mapping, the
//!   "more sophisticated strategy" the paper's conclusion anticipates.
//!
//! Two more modules carry what surrounds an allocation:
//!
//! * [`order`] — the second half of scheduling the paper leaves open:
//!   a deterministic topological execution order and the per-processor
//!   work queues the `spfactor-mp` runtime executes;
//! * [`artifact`] — [`plan`], the one function that runs the whole
//!   pattern-only front end, and the frozen, hashable, shared
//!   [`ScheduleArtifact`] it returns under a [`ScheduleKey`]: the unit
//!   the `spfactor-serve` schedule cache stores and reuses. Its text form
//!   is the key, a fingerprint and the permutation — where the paper's
//!   partitioner "generates and stores dependency information" for its
//!   simulator, this one stores the ordering and re-derives the rest.

pub mod alt;
pub mod artifact;
pub mod order;
pub mod proportional;

pub use artifact::{
    plan, read_artifact_text, rebuild_artifact, ArtifactDump, ScheduleArtifact, ScheduleKey, Scheme,
};
pub use order::{processor_queues, topological_order};

use spfactor_partition::{DepGraph, Partition, UnitShape};
use spfactor_trace::Current;

/// A unit-block → processor assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Number of processors.
    pub nprocs: usize,
    /// `proc_of_unit[u]` — the processor that owns unit block `u`.
    pub proc_of_unit: Vec<u32>,
}

impl Assignment {
    /// Processor of unit `u`.
    #[inline]
    pub fn proc_of(&self, u: usize) -> usize {
        self.proc_of_unit[u] as usize
    }

    /// Per-processor work totals under the paper's cost model.
    pub fn work_per_proc(&self, partition: &Partition) -> Vec<usize> {
        let mut w = vec![0usize; self.nprocs];
        for u in &partition.units {
            w[self.proc_of(u.id)] += u.work;
        }
        w
    }
}

/// Branch tallies for one [`block_allocation`] run, accumulated in locals
/// so the recorder mutex stays out of the allocation loop.
#[derive(Default)]
struct AllocStats {
    independent_wrap: u64,
    dependent_pred: u64,
    dependent_pool: u64,
    triangle_pred: u64,
    triangle_pool: u64,
    rect_rr: u64,
}

impl AllocStats {
    fn record(&self, rec: &Current) {
        rec.incr("sched.alloc.independent_wrap", self.independent_wrap);
        rec.incr("sched.alloc.dependent_pred", self.dependent_pred);
        rec.incr("sched.alloc.dependent_pool", self.dependent_pool);
        rec.incr("sched.alloc.triangle_pred", self.triangle_pred);
        rec.incr("sched.alloc.triangle_pool", self.triangle_pool);
        rec.incr("sched.alloc.rect_rr", self.rect_rr);
    }
}

/// The paper's block allocation algorithm (§3.4).
///
/// 1. Independent columns (single-column units with no predecessors) are
///    allocated in wrap-around fashion.
/// 2. Clusters are scanned left to right. A dependent single column goes
///    to a processor picked from those that worked on its predecessors.
/// 3. In a strip cluster, the triangle's units are allocated first (sub-
///    triangles top to bottom, then interior rectangles): each unit goes
///    to the processor of one of its predecessors not yet in the
///    per-triangle set `Pa`; if all predecessor processors are already in
///    `Pa`, the globally next processor (marker into `Pg`) is used.
/// 4. The units of each rectangle below the triangle are restricted to
///    `Pt` — the processors used in the triangle — walked in round-robin
///    order of increasing accumulated work, re-sorted after each
///    rectangle.
///
/// Under a recorder scope: times the allocation under the span
/// `sched.block_allocation` and counts how often each heuristic branch
/// fired — `sched.alloc.independent_wrap`, `.dependent_pred`,
/// `.dependent_pool`, `.triangle_pred`, `.triangle_pool` and `.rect_rr`
/// (see `docs/METRICS.md`). The branch counts sum to the number of units.
pub fn block_allocation(partition: &Partition, deps: &DepGraph, nprocs: usize) -> Assignment {
    assert!(nprocs > 0, "need at least one processor");
    let rec = spfactor_trace::current();
    let _span = rec.span("sched.block_allocation");
    let mut stats = AllocStats::default();
    let nu = partition.num_units();
    const UNASSIGNED: u32 = u32::MAX;
    let mut proc_of_unit = vec![UNASSIGNED; nu];
    let mut work = vec![0usize; nprocs];
    // Global round-robin marker into Pg.
    let mut marker = 0usize;
    let next_global = |marker: &mut usize| -> usize {
        let p = *marker;
        *marker = (*marker + 1) % nprocs;
        p
    };

    let assign = |u: usize, p: usize, proc_of_unit: &mut [u32], work: &mut [usize]| {
        debug_assert_eq!(proc_of_unit[u], UNASSIGNED);
        proc_of_unit[u] = p as u32;
        work[p] += partition.units[u].work;
    };

    // Step 1: independent columns, wrap-around.
    for u in &partition.units {
        if matches!(u.shape, UnitShape::Column { .. }) && deps.preds(u.id).is_empty() {
            let p = next_global(&mut marker);
            assign(u.id, p, &mut proc_of_unit, &mut work);
            stats.independent_wrap += 1;
        }
    }

    // Steps 2-4: scan clusters left to right. Units are stored in scan
    // order and contiguous per cluster.
    let mut idx = 0usize;
    while idx < nu {
        let cluster = partition.units[idx].cluster;
        let mut end = idx;
        while end < nu && partition.units[end].cluster == cluster {
            end += 1;
        }
        let cl = &partition.clusters[cluster];
        if cl.is_single() {
            let u = idx;
            debug_assert_eq!(end, idx + 1);
            if proc_of_unit[u] == UNASSIGNED {
                // Dependent column: a processor that worked on one of its
                // predecessors ("arbitrarily picked" — we take the first
                // allocated predecessor for determinism).
                let p = deps
                    .preds(u)
                    .iter()
                    .find_map(|&s| {
                        let sp = proc_of_unit[s as usize];
                        (sp != UNASSIGNED).then_some(sp as usize)
                    })
                    .inspect(|_| {
                        stats.dependent_pred += 1;
                    })
                    .unwrap_or_else(|| {
                        stats.dependent_pool += 1;
                        next_global(&mut marker)
                    });
                assign(u, p, &mut proc_of_unit, &mut work);
            }
        } else {
            // Triangle units come first in scan order: sub-triangles and
            // interior rectangles all have rows within the strip extent.
            let strip_hi = cl.cols.hi;
            let is_triangle_part = |shape: &UnitShape| match shape {
                UnitShape::Triangle { .. } => true,
                UnitShape::Rectangle { rows, .. } => rows.hi <= strip_hi,
                UnitShape::Column { .. } => false,
            };
            let mut pa: Vec<usize> = Vec::new(); // processors used in this triangle
            let mut u = idx;
            while u < end && is_triangle_part(&partition.units[u].shape) {
                // Route to a predecessor's processor not yet in Pa.
                let mut chosen = None;
                for &s in deps.preds(u) {
                    let sp = proc_of_unit[s as usize];
                    if sp != UNASSIGNED && !pa.contains(&(sp as usize)) {
                        chosen = Some(sp as usize);
                        break;
                    }
                }
                let p = match chosen {
                    Some(p) => {
                        stats.triangle_pred += 1;
                        p
                    }
                    None => {
                        stats.triangle_pool += 1;
                        next_global(&mut marker)
                    }
                };
                if !pa.contains(&p) {
                    pa.push(p);
                }
                assign(u, p, &mut proc_of_unit, &mut work);
                u += 1;
            }
            // Rectangles below the triangle: restricted to Pt = pa,
            // round-robin in order of increasing work, re-sorted after
            // each rectangle. Rectangle boundaries are detected by row
            // extent changes.
            let pt = pa; // the triangle's processor set
            debug_assert!(!pt.is_empty() || u == end);
            while u < end {
                // One below-rectangle: maximal run of units with the same
                // row extent... units of one rectangle grid share the
                // same row run only per grid row; instead group by the
                // enclosing rect run: consecutive units whose rows lie
                // within the same below-rectangle. Simpler: a new
                // rectangle starts when the row extent's lo decreases or
                // jumps to a new run; we track the run covering the unit.
                let run_of = |shape: &UnitShape| -> (usize, usize) {
                    match shape {
                        UnitShape::Rectangle { rows, .. } => {
                            // Find the cluster rect run containing rows.lo.
                            if let spfactor_partition::ClusterKind::Strip { rect_rows } = &cl.kind {
                                let k = rect_rows.partition_point(|r| r.hi < rows.lo);
                                (k, rect_rows.len())
                            } else {
                                unreachable!("strip cluster")
                            }
                        }
                        _ => unreachable!("below-triangle units are rectangles"),
                    }
                };
                let (run, _) = run_of(&partition.units[u].shape);
                // Processors of Pt in increasing-work order.
                let mut order: Vec<usize> = pt.clone();
                order.sort_by_key(|&p| (work[p], p));
                let mut rr = 0usize;
                while u < end {
                    let shape = &partition.units[u].shape;
                    if is_triangle_part(shape) {
                        break;
                    }
                    let (r, _) = run_of(shape);
                    if r != run {
                        break;
                    }
                    let p = order[rr % order.len()];
                    rr += 1;
                    assign(u, p, &mut proc_of_unit, &mut work);
                    stats.rect_rr += 1;
                    u += 1;
                }
            }
        }
        idx = end;
    }

    debug_assert!(proc_of_unit.iter().all(|&p| p != UNASSIGNED));
    stats.record(&rec);
    Assignment {
        nprocs,
        proc_of_unit,
    }
}

/// The wrap-mapped column scheme: over a per-column partition
/// ([`Partition::columns`]), column `j` is assigned to processor
/// `j mod nprocs`.
///
/// Under a recorder scope: times the assignment under the span
/// `sched.wrap_allocation` and counts the wrapped columns as
/// `sched.alloc.wrap_columns`.
pub fn wrap_allocation(partition: &Partition, nprocs: usize) -> Assignment {
    assert!(nprocs > 0, "need at least one processor");
    let rec = spfactor_trace::current();
    let _span = rec.span("sched.wrap_allocation");
    let proc_of_unit: Vec<u32> = partition
        .units
        .iter()
        .map(|u| match u.shape {
            UnitShape::Column { col } => (col % nprocs) as u32,
            _ => panic!("wrap_allocation requires a per-column partition"),
        })
        .collect();
    rec.incr("sched.alloc.wrap_columns", proc_of_unit.len() as u64);
    Assignment {
        nprocs,
        proc_of_unit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_symbolic::SymbolicFactor;

    fn setup(p: &SymmetricPattern, grain: usize) -> (SymbolicFactor, Partition, DepGraph) {
        let perm = order(p, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&p.permute(&perm));
        let part = Partition::build(&f, &PartitionParams::with_grain(grain));
        let deps = dependencies(&f, &part);
        (f, part, deps)
    }

    #[test]
    fn block_allocation_assigns_every_unit() {
        let p = gen::lap9(10, 10);
        let (_f, part, deps) = setup(&p, 4);
        for nprocs in [1, 3, 4, 16] {
            let a = block_allocation(&part, &deps, nprocs);
            assert_eq!(a.proc_of_unit.len(), part.num_units());
            assert!(a.proc_of_unit.iter().all(|&p| (p as usize) < nprocs));
        }
    }

    #[test]
    fn block_allocation_is_deterministic() {
        let p = gen::lap9(8, 8);
        let (_f, part, deps) = setup(&p, 4);
        assert_eq!(
            block_allocation(&part, &deps, 7),
            block_allocation(&part, &deps, 7)
        );
    }

    #[test]
    fn single_processor_gets_everything() {
        let p = gen::lap9(6, 6);
        let (_f, part, deps) = setup(&p, 4);
        let a = block_allocation(&part, &deps, 1);
        assert!(a.proc_of_unit.iter().all(|&p| p == 0));
    }

    #[test]
    fn independent_columns_are_wrapped() {
        // Diagonal-only matrix: every column is independent.
        let p = SymmetricPattern::from_edges(6, []);
        let f = SymbolicFactor::from_pattern(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 4);
        assert_eq!(a.proc_of_unit, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn below_rectangles_stay_within_triangle_procs() {
        let p = gen::lap9(12, 12);
        let (_f, part, deps) = setup(&p, 4);
        let a = block_allocation(&part, &deps, 8);
        for cl in &part.clusters {
            if cl.is_single() {
                continue;
            }
            let mut tri_procs = std::collections::BTreeSet::new();
            let mut rect_procs = std::collections::BTreeSet::new();
            for u in &part.units {
                if u.cluster != cl.id {
                    continue;
                }
                match &u.shape {
                    UnitShape::Triangle { .. } => {
                        tri_procs.insert(a.proc_of(u.id));
                    }
                    UnitShape::Rectangle { rows, .. } => {
                        if rows.lo > cl.cols.hi {
                            rect_procs.insert(a.proc_of(u.id));
                        } else {
                            tri_procs.insert(a.proc_of(u.id));
                        }
                    }
                    UnitShape::Column { .. } => unreachable!(),
                }
            }
            assert!(
                rect_procs.is_subset(&tri_procs),
                "cluster {}: rect procs {rect_procs:?} not within Pt {tri_procs:?}",
                cl.id
            );
        }
    }

    #[test]
    fn dependent_column_joins_a_predecessor_processor() {
        // A path: column j depends only on column j-1 (tridiagonal factor),
        // so every dependent column must land on the same processor as its
        // predecessor => all on processor 0 after column 0 wraps there.
        let p = SymmetricPattern::from_edges(5, (1..5).map(|i| (i, i - 1)));
        let f = SymbolicFactor::from_pattern(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 3);
        // Column 0 is the only independent column -> proc 0; all others
        // follow their predecessor.
        assert!(a.proc_of_unit.iter().all(|&p| p == 0));
    }

    #[test]
    fn wrap_allocation_is_modular() {
        let p = gen::lap9(5, 5);
        let perm = order(&p, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&p.permute(&perm));
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 4);
        for j in 0..f.n() {
            assert_eq!(a.proc_of(j), j % 4);
        }
    }

    #[test]
    #[should_panic(expected = "per-column partition")]
    fn wrap_allocation_rejects_block_partitions() {
        let p = gen::lap9(8, 8);
        let (_f, part, _deps) = setup(&p, 4);
        // The lap9(8,8) MMD factor has strip clusters, so this must panic.
        wrap_allocation(&part, 4);
    }

    #[test]
    fn work_per_proc_sums_to_total() {
        let p = gen::lap9(9, 9);
        let (f, part, deps) = setup(&p, 4);
        let a = block_allocation(&part, &deps, 5);
        let w = a.work_per_proc(&part);
        assert_eq!(w.iter().sum::<usize>(), f.paper_work());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use spfactor_matrix::gen::random_geometric;
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_symbolic::SymbolicFactor;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The paper's allocator covers every unit with a valid processor
        /// and keeps below-rectangle units within the triangle's set, for
        /// arbitrary structures, grains, and processor counts.
        #[test]
        fn prop_block_allocation_invariants(
            n in 5usize..70,
            deg in 2.0f64..7.0,
            seed in any::<u64>(),
            grain in 1usize..25,
            nprocs in 1usize..12,
        ) {
            let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
            let p = random_geometric(n, r, seed);
            let perm = order(&p, Ordering::paper_default());
            let f = SymbolicFactor::from_pattern(&p.permute(&perm));
            let part = Partition::build(&f, &PartitionParams::with_grain(grain));
            let deps = dependencies(&f, &part);
            let a = block_allocation(&part, &deps, nprocs);
            prop_assert_eq!(a.proc_of_unit.len(), part.num_units());
            prop_assert!(a.proc_of_unit.iter().all(|&pp| (pp as usize) < nprocs));
            prop_assert_eq!(
                a.work_per_proc(&part).iter().sum::<usize>(),
                f.paper_work()
            );
            // Below-rectangles within Pt.
            for cl in &part.clusters {
                if cl.is_single() {
                    continue;
                }
                let mut tri = std::collections::BTreeSet::new();
                let mut rect = std::collections::BTreeSet::new();
                for u in &part.units {
                    if u.cluster != cl.id {
                        continue;
                    }
                    match &u.shape {
                        UnitShape::Triangle { .. } => {
                            tri.insert(a.proc_of(u.id));
                        }
                        UnitShape::Rectangle { rows, .. } if rows.lo > cl.cols.hi => {
                            rect.insert(a.proc_of(u.id));
                        }
                        UnitShape::Rectangle { .. } => {
                            tri.insert(a.proc_of(u.id));
                        }
                        UnitShape::Column { .. } => unreachable!(),
                    }
                }
                prop_assert!(rect.is_subset(&tri));
            }
        }
    }
}
