//! Subtree-based proportional allocation.
//!
//! The paper closes with "more sophisticated scheduling strategies could
//! be used to improve performance". The classic candidate is
//! subtree-to-subcube / proportional mapping (Pothen & Sun): disjoint
//! elimination-tree subtrees are independent, so giving each processor
//! whole subtrees eliminates communication inside them, while the shared
//! top of the tree is spread for balance. This module implements a
//! work-aware variant over the unit-block partition:
//!
//! 1. split the elimination tree from the top until there are at least
//!    `SPLIT_FACTOR · P` subtrees (always splitting the heaviest);
//! 2. assign subtrees to processors greedily by descending work (LPT);
//! 3. assign the cut (separator) columns, bottom-up, to the least-loaded
//!    processor at that point;
//! 4. every unit block goes to the processor of its first column.

use crate::Assignment;
use spfactor_partition::Partition;
use spfactor_symbolic::ops::column_work;
use spfactor_symbolic::SymbolicFactor;

/// Target number of subtrees per processor before LPT assignment.
const SPLIT_FACTOR: usize = 4;

/// Proportional (subtree-based) allocation of a partition's unit blocks.
pub fn proportional_allocation(
    factor: &SymbolicFactor,
    partition: &Partition,
    nprocs: usize,
) -> Assignment {
    assert!(nprocs > 0, "need at least one processor");
    let n = factor.n();
    let colw = column_work(factor);
    let children = factor.etree().children();

    // Subtree work below (and including) each column.
    let mut subtree = colw.clone();
    for j in 0..n {
        // Children have smaller indices than parents in an etree, so a
        // single ascending pass accumulates correctly.
        for &c in children.of(j) {
            subtree[j] += subtree[c];
        }
    }

    // Split from the top: maintain a max-heap of candidate subtree roots.
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<(usize, usize)> = factor
        .etree()
        .roots()
        .into_iter()
        .map(|r| (subtree[r], r))
        .collect();
    let mut separators: Vec<usize> = Vec::new();
    let mut leaves: Vec<(usize, usize)> = Vec::new(); // unsplittable parts
    let target = SPLIT_FACTOR * nprocs;
    while heap.len() + leaves.len() < target {
        match heap.pop() {
            Some((_w, r)) if !children.of(r).is_empty() => {
                separators.push(r);
                for &c in children.of(r) {
                    heap.push((subtree[c], c));
                }
            }
            Some(part) => leaves.push(part),
            None => break,
        }
    }
    let mut parts: Vec<(usize, usize)> = heap.into_iter().chain(leaves).collect();
    // LPT: heaviest part to the least-loaded processor.
    parts.sort_unstable_by_key(|&(w, r)| (Reverse(w), r));
    let mut load = vec![0usize; nprocs];
    let mut col_proc = vec![u32::MAX; n];
    let mut stack = Vec::new();
    for (w, root) in parts {
        let p = (0..nprocs).min_by_key(|&p| (load[p], p)).unwrap();
        load[p] += w;
        // Mark the whole subtree.
        stack.push(root);
        while let Some(v) = stack.pop() {
            col_proc[v] = p as u32;
            stack.extend(children.of(v).iter().copied());
        }
    }
    // Separator columns bottom-up (ascending index ≈ bottom-up in the
    // etree) to the least-loaded processor.
    separators.sort_unstable();
    for s in separators {
        if col_proc[s] == u32::MAX {
            let p = (0..nprocs).min_by_key(|&p| (load[p], p)).unwrap();
            load[p] += colw[s];
            col_proc[s] = p as u32;
        }
    }
    debug_assert!(col_proc.iter().all(|&p| p != u32::MAX));

    // Units follow their first column.
    let proc_of_unit = partition
        .units
        .iter()
        .map(|u| col_proc[u.shape.col_extent().lo])
        .collect();
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
    use spfactor_partition::PartitionParams;

    fn setup(p: &SymmetricPattern) -> (SymbolicFactor, Partition) {
        let perm = order(p, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&p.permute(&perm));
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        (f, part)
    }

    #[test]
    fn proportional_assigns_every_unit() {
        let p = gen::lap9(10, 10);
        let (f, part) = setup(&p);
        for nprocs in [1usize, 4, 16] {
            let a = proportional_allocation(&f, &part, nprocs);
            assert_eq!(a.proc_of_unit.len(), part.num_units());
            assert!(a.proc_of_unit.iter().all(|&pp| (pp as usize) < nprocs));
            // Work conservation.
            assert_eq!(a.work_per_proc(&part).iter().sum::<usize>(), f.paper_work());
        }
    }

    #[test]
    fn proportional_is_deterministic() {
        let p = gen::lap9(9, 9);
        let (f, part) = setup(&p);
        assert_eq!(
            proportional_allocation(&f, &part, 8),
            proportional_allocation(&f, &part, 8)
        );
    }

    #[test]
    fn single_processor_trivial() {
        let p = gen::grid5(5, 5);
        let (f, part) = setup(&p);
        let a = proportional_allocation(&f, &part, 1);
        assert!(a.proc_of_unit.iter().all(|&pp| pp == 0));
    }

    #[test]
    fn lpt_balances_disjoint_paths() {
        // Two disjoint equal-work paths on P = 2: LPT over the split
        // subtrees must spread the work to within one column's work.
        let p = SymmetricPattern::from_edges(8, [(1, 0), (2, 1), (3, 2), (5, 4), (6, 5), (7, 6)]);
        let f = SymbolicFactor::from_pattern(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let a = proportional_allocation(&f, &part, 2);
        let w = a.work_per_proc(&part);
        let maxcol = column_work(&f).into_iter().max().unwrap();
        assert!(
            w[0].abs_diff(w[1]) <= maxcol,
            "unbalanced: {w:?} (max column work {maxcol})"
        );
    }

    #[test]
    fn proportional_traffic_between_block_and_round_robin() {
        // Characterization: subtree locality should communicate less than
        // blind round-robin over units.
        let p = gen::lap9(14, 14);
        let (f, part) = setup(&p);
        let deps = spfactor_partition::dependencies(&f, &part);
        let _ = &deps;
        let prop = proportional_allocation(&f, &part, 8);
        let rr = crate::alt::round_robin_allocation(&part, 8);
        let t_prop = count_remote_edges(&f, &part, &prop);
        let t_rr = count_remote_edges(&f, &part, &rr);
        assert!(
            t_prop < t_rr,
            "proportional remote edges {t_prop} !< round-robin {t_rr}"
        );
    }

    /// Cheap traffic proxy: dependency edges crossing processors.
    fn count_remote_edges(f: &SymbolicFactor, part: &Partition, a: &Assignment) -> usize {
        let deps = spfactor_partition::dependencies(f, part);
        let mut remote = 0;
        for u in 0..part.num_units() {
            for &s in deps.preds(u) {
                if a.proc_of(s as usize) != a.proc_of(u) {
                    remote += 1;
                }
            }
        }
        remote
    }
}
