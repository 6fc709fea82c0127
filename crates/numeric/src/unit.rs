//! What one **unit block** of the paper's partition computes — the one
//! place that knows.
//!
//! Both schedule executors — [`crate::cholesky_block_parallel`] (shared
//! memory) and `spfactor_mp::execute` (message passing) — are transports
//! around this module: they decide *when* a unit runs and how the values
//! it reads got there; [`UnitKernel::walk`] decides *what* it does. The
//! walk goes straight off the factor's structure: for each column `j` the
//! unit owns entries of, row `j` of L ([`SymbolicFactor::row_structure`])
//! lists the source columns `k` in ascending order, and the owned rows
//! are merged against the tail of column `k` below `L(j, k)`. Entry ids
//! are positions (`n + colptr[k] + offset`), so there is no lookup that
//! could miss, and nothing is stored per update pair.
//!
//! Ascending `k` per target element is the sequential kernel's summation
//! order, so a factor computed by running every unit once, each after the
//! units it depends on, is `==` [`crate::cholesky`]'s.

use crate::factor::NumericFactor;
use crate::NumericError;
use spfactor_matrix::SymmetricCsc;
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_symbolic::{RowStructure, SymbolicFactor};

/// One operation of a unit block, on entry ids (diagonal `j` at `j`,
/// strict entries at `n +` their column-compressed position).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// `values[tgt] -= values[s1] * values[s2]`: target `L(i, j)` takes
    /// `L(i, k) · L(j, k)`; `s1 == s2` when the target is a diagonal.
    Update {
        /// The owned target entry.
        tgt: usize,
        /// `L(i, k)`.
        s1: usize,
        /// `L(j, k)`.
        s2: usize,
    },
    /// `values[j] = sqrt(values[j])`: the owned diagonal of column `j`
    /// has received all its updates.
    Pivot(usize),
    /// `values[id] /= values[diag]`: an owned strict entry is scaled by
    /// the final diagonal of its column.
    Scale {
        /// The owned strict entry.
        id: usize,
        /// The diagonal of its column (the column index).
        diag: usize,
    },
}

/// The unit blocks of one partition as executable work. Pattern-only and
/// `O(entries)` to build: the owned entries of every unit plus borrowed
/// structure.
pub struct UnitKernel<'a> {
    symbolic: &'a SymbolicFactor,
    rows: &'a RowStructure,
    /// Unit `u` owns `entries[start[u]..start[u + 1]]`.
    start: Vec<usize>,
    /// Entry ids grouped by owning unit, each group in `(column, id)`
    /// order — a column's diagonal before its strict entries.
    entries: Vec<u32>,
}

impl<'a> UnitKernel<'a> {
    /// Groups the factor's entries by owning unit: the units' element
    /// counts size the groups, then each column is split by owner
    /// ([`Partition::split_column`]) into them. Fails if `partition` was
    /// not built for `symbolic`'s structure: another column count or
    /// entry total, a stored row outside its layout, or a unit handed
    /// more entries than it counted.
    pub fn new(symbolic: &'a SymbolicFactor, partition: &Partition) -> Result<Self, NumericError> {
        let mismatch = NumericError::StructureMismatch;
        let (n, entries) = (symbolic.n(), symbolic.num_entries());
        if partition.num_cols() != n {
            return Err(mismatch(format!(
                "partition has {} columns, symbolic factor has {n}",
                partition.num_cols()
            )));
        }
        let owned: usize = partition.units.iter().map(|u| u.elements).sum();
        if owned != entries || u32::try_from(entries).is_err() {
            return Err(mismatch(format!(
                "partition owns {owned} entries, symbolic factor has {entries}"
            )));
        }
        let mut start = Vec::with_capacity(partition.num_units() + 1);
        start.push(0);
        for u in &partition.units {
            start.push(start[start.len() - 1] + u.elements);
        }
        // The element counts sum to the entry total, so a column handing
        // some unit more than it counted would leave another short: the
        // cursor check below is the whole consistency check.
        let mut cursor = start.clone();
        let mut entries = vec![0u32; entries];
        let mut overfull = None;
        let mut segs = Vec::new();
        for j in 0..n {
            partition
                .split_column(symbolic, j, &mut segs, |u, ids| {
                    let (u, at) = (u as usize, cursor[u as usize]);
                    let end = at + ids.len();
                    if end > start[u + 1] {
                        overfull.get_or_insert(u);
                        return;
                    }
                    for (slot, id) in entries[at..end].iter_mut().zip(ids) {
                        *slot = id as u32;
                    }
                    cursor[u] = end;
                })
                .map_err(|row| {
                    mismatch(format!("row {row} of column {j} is outside the partition"))
                })?;
        }
        if let Some(u) = overfull {
            return Err(mismatch(format!(
                "unit {u} owns more entries than the {} it counted",
                partition.units[u].elements
            )));
        }
        Ok(UnitKernel {
            symbolic,
            rows: symbolic.row_structure(),
            start,
            entries,
        })
    }

    /// The entry ids unit `u` owns, in `(column, id)` order.
    pub fn entries_of(&self, u: usize) -> &[u32] {
        &self.entries[self.start[u]..self.start[u + 1]]
    }

    /// Checks that `deps` and `assignment` were built for `partition`:
    /// one dependency row and one processor per unit, every processor id
    /// below `assignment.nprocs`. Both executors call this before they
    /// spawn a thread, so mismatched schedule inputs fail typed instead of
    /// indexing out of bounds on a worker.
    pub fn check_schedule(
        partition: &Partition,
        deps: &DepGraph,
        assignment: &Assignment,
    ) -> Result<(), NumericError> {
        let nu = partition.num_units();
        let mismatch = |what: String| Err(NumericError::StructureMismatch(what));
        if deps.num_units() != nu {
            return mismatch(format!(
                "dependency graph has {} units, partition has {nu}",
                deps.num_units()
            ));
        }
        if assignment.proc_of_unit.len() != nu {
            return mismatch(format!(
                "assignment maps {} units, partition has {nu}",
                assignment.proc_of_unit.len()
            ));
        }
        if let Some(u) = assignment
            .proc_of_unit
            .iter()
            .position(|&p| p as usize >= assignment.nprocs)
        {
            return mismatch(format!(
                "unit {u} is assigned to processor {}, assignment has {}",
                assignment.proc_of_unit[u], assignment.nprocs
            ));
        }
        Ok(())
    }

    /// The values of `a` in entry-id layout, zero where L has fill.
    pub fn seed(&self, a: &SymmetricCsc) -> Result<Vec<f64>, NumericError> {
        let n = a.n();
        if n != self.symbolic.n() {
            return Err(NumericError::StructureMismatch(format!(
                "matrix is {n}, symbolic factor is {}",
                self.symbolic.n()
            )));
        }
        let mut values = vec![0.0f64; self.symbolic.num_entries()];
        for j in 0..n {
            let (rows, avals) = (a.col_rows(j), a.col_values(j));
            values[j] = avals[0];
            for (&i, &v) in rows[1..].iter().zip(&avals[1..]) {
                let id = self.symbolic.entry_id(i, j).ok_or_else(|| {
                    NumericError::StructureMismatch(format!("A({i}, {j}) not in factor"))
                })?;
                values[id] = v;
            }
        }
        Ok(values)
    }

    /// Visits the operations of unit `u` in execution order: per owned
    /// column `j` ascending, the updates into its owned entries (source
    /// column `k` ascending, then target row ascending), then the pivot
    /// if the diagonal is owned, then one scaling per owned strict entry.
    /// Stops at the first error `visit` returns.
    pub fn walk<E>(&self, u: usize, mut visit: impl FnMut(Step) -> Result<(), E>) -> Result<(), E> {
        let n = self.symbolic.n();
        let (colptr, rowidx) = (self.symbolic.colptr(), self.symbolic.rowidx());
        let mut owned = self.entries_of(u);
        while let Some(&first) = owned.first() {
            let j = self.symbolic.entry_coords(first as usize).1;
            let strict_ids = n + colptr[j]..n + colptr[j + 1];
            let len = owned
                .iter()
                .position(|&id| id as usize != j && !strict_ids.contains(&(id as usize)))
                .unwrap_or(owned.len());
            let (column, rest) = owned.split_at(len);
            owned = rest;
            let has_diag = first as usize == j;
            let strict = &column[has_diag as usize..];
            for &(k, pos) in self.rows.row(j) {
                // L(j, k); column k is sorted, so its rows below j — all
                // of them rows of column j — follow it.
                let at = colptr[k as usize] + pos as usize;
                let ljk = n + at;
                if has_diag {
                    visit(Step::Update {
                        tgt: j,
                        s1: ljk,
                        s2: ljk,
                    })?;
                }
                let Some(&lowest) = strict.first() else {
                    continue;
                };
                let end = colptr[k as usize + 1];
                let lowest = rowidx[lowest as usize - n];
                let mut q = at + 1 + rowidx[at + 1..end].partition_point(|&r| r < lowest);
                for &tgt in strict {
                    let i = rowidx[tgt as usize - n];
                    while q < end && rowidx[q] < i {
                        q += 1;
                    }
                    if q == end {
                        break;
                    }
                    if rowidx[q] == i {
                        visit(Step::Update {
                            tgt: tgt as usize,
                            s1: n + q,
                            s2: ljk,
                        })?;
                        q += 1;
                    }
                }
            }
            if has_diag {
                visit(Step::Pivot(j))?;
            }
            for &id in strict {
                visit(Step::Scale {
                    id: id as usize,
                    diag: j,
                })?;
            }
        }
        Ok(())
    }

    /// Executes unit `u` on `values` (entry-id layout): the entries the
    /// unit owns become final. Returns the work done under the paper's
    /// cost model (2 per update, 1 per scaling), or the column whose pivot
    /// was not positive (or NaN); the unit stops there.
    pub fn run(&self, u: usize, values: &mut [f64]) -> Result<usize, usize> {
        assert_eq!(values.len(), self.entries.len(), "one value per entry");
        // SAFETY: the walk yields ids below `entries.len()`, and the
        // exclusive borrow rules out any concurrent access.
        unsafe { self.run_shared(u, values.as_mut_ptr()) }
    }

    /// [`Self::run`] on a value array other threads are working on too.
    ///
    /// # Safety
    ///
    /// `values` must point to [`SymbolicFactor::num_entries`] values. For
    /// the duration of the call no other thread may access the entries
    /// unit `u` owns, and none may write the entries it reads — which is
    /// what running `u` after all its `DepGraph` predecessors have
    /// completed, with that completion published to this thread,
    /// guarantees.
    pub unsafe fn run_shared(&self, u: usize, values: *mut f64) -> Result<usize, usize> {
        let mut work = 0;
        self.walk(u, |step| {
            // SAFETY: every id the walk yields is an entry id, in bounds
            // by the caller's contract; written ids are owned by `u`.
            unsafe {
                match step {
                    Step::Update { tgt, s1, s2 } => {
                        *values.add(tgt) -= *values.add(s1) * *values.add(s2);
                        work += 2;
                    }
                    Step::Pivot(j) => {
                        let d = *values.add(j);
                        // NaN-safe: a plain `d <= 0.0` would let a NaN
                        // pivot through.
                        if d.is_nan() || d <= 0.0 {
                            return Err(j);
                        }
                        *values.add(j) = d.sqrt();
                    }
                    Step::Scale { id, diag } => {
                        *values.add(id) /= *values.add(diag);
                        work += 1;
                    }
                }
            }
            Ok(())
        })?;
        Ok(work)
    }

    /// The error to report once some unit's pivot failed at `col`.
    /// Units run concurrently, so which failing column is seen first
    /// varies; the sequential kernel does the same arithmetic in column
    /// order, so its error names the lowest one, every time.
    pub fn pivot_error(&self, a: &SymmetricCsc, col: usize) -> NumericError {
        crate::cholesky(a, self.symbolic)
            .err()
            .unwrap_or(NumericError::NotPositiveDefinite(col))
    }

    /// Repackages a finished value array (entry-id layout) as the factor:
    /// the array is the factor's storage as it stands, the structure a
    /// handle on the symbolic factor's.
    pub fn into_factor(self, values: Vec<f64>) -> NumericFactor {
        NumericFactor::new(self.symbolic, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_partition::PartitionParams;

    // The walk and `run` are pinned in tests/numeric_kernel_bits.rs.

    /// What `UnitKernel::new` says about a partition it must refuse.
    fn mismatch(symbolic: &SymbolicFactor, partition: &Partition) -> String {
        match UnitKernel::new(symbolic, partition) {
            Err(NumericError::StructureMismatch(what)) => what,
            Err(e) => panic!("{e:?}"),
            Ok(_) => panic!("a foreign partition was accepted"),
        }
    }

    /// The factor of a ten-vertex graph, in its natural order.
    fn factor(edges: Vec<(usize, usize)>) -> SymbolicFactor {
        SymbolicFactor::from_pattern(&SymmetricPattern::from_edges(10, edges))
    }

    #[test]
    fn a_partition_of_another_factor_is_a_typed_error() {
        let f = SymbolicFactor::from_pattern(&gen::lap9(4, 4));
        let other = SymbolicFactor::from_pattern(&gen::lap9(3, 3));
        let part = Partition::columns(&f);
        assert!(mismatch(&other, &part).contains("columns"));
    }

    #[test]
    fn a_same_sized_foreign_partition_is_a_typed_error() {
        // A 4-clique joined to vertex `far`: the factors for far = 8 and
        // far = 9 have the same columns and entry count.
        let clique_to = |far: usize| {
            let mut edges = vec![(far, 0), (far, 1), (far, 2), (far, 3)];
            for a in 0..4 {
                edges.extend((a + 1..4).map(|b| (b, a)));
            }
            factor(edges)
        };
        let (to8, to9) = (clique_to(8), clique_to(9));
        assert_eq!(to8.num_entries(), to9.num_entries());
        let mut params = PartitionParams::with_grain(100);
        params.min_cluster_width = 2;
        // The strip's layout covers rows 0-3 and 9, not row 8.
        let part = Partition::build(&to9, &params);
        let what = mismatch(&to8, &part);
        assert!(what.contains("row 8 of column 0"), "{what}");

        // A chain and a triangle-then-chain: nine strict entries each,
        // but column 0 of the second stores two.
        let chain = factor((1..10).map(|i| (i, i - 1)).collect());
        let mut edges = vec![(1, 0), (2, 0), (2, 1)];
        edges.extend((4..10).map(|i| (i, i - 1)));
        let triangle = factor(edges);
        assert_eq!(chain.num_entries(), triangle.num_entries());
        let what = mismatch(&triangle, &Partition::columns(&chain));
        assert!(what.contains("unit 0 owns more entries"), "{what}");
    }
}
