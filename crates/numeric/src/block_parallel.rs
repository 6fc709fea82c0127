//! Parallel numeric factorization driven by the **paper's schedule**.
//!
//! This is the end-to-end validation of the whole reproduction: the unit
//! blocks of [`Partition`], the dependency graph of
//! [`spfactor_partition::dependencies`], and a processor
//! [`Assignment`] are executed *numerically* — one thread per simulated
//! processor, each running its own unit blocks as their dependencies
//! resolve. Every update operation is performed by the unit that owns the
//! **target** element (exactly the work model of §4), in ascending
//! source-column order, so the result is **bit-identical** to the
//! sequential left-looking factorization.
//!
//! If the dependency analysis missed an edge, this executor would read a
//! stale value and the bitwise comparison in the tests would fail — a
//! much sharper check than residual norms.

use crate::factor::NumericFactor;
use crate::NumericError;
use crossbeam::channel;
use spfactor_matrix::SymmetricCsc;
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_symbolic::{ops, SymbolicFactor};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

/// One update operation, with positions resolved into the shared value
/// array (entry-id indexing: diagonal `j` at `j`, strict entries at
/// `n + column-compressed position`).
#[derive(Clone, Copy)]
struct OpRec {
    /// Target position.
    tgt: u32,
    /// First source position (`L(i,k)`).
    s1: u32,
    /// Second source position (`L(j,k)`); equals `s1` for diagonal
    /// targets.
    s2: u32,
}

/// Shared mutable value array. Safety protocol: every position is written
/// only by the unit that owns it (ownership is a partition), and reads of
/// other units' positions happen only after the dependency graph says the
/// writer completed — the completion signal travels through an
/// `AtomicUsize::fetch_sub(AcqRel)` and a channel send, both of which
/// establish happens-before.
struct SharedVals {
    ptr: *mut f64,
    len: usize,
}
unsafe impl Send for SharedVals {}
unsafe impl Sync for SharedVals {}

impl SharedVals {
    #[inline]
    unsafe fn read(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        unsafe { *self.ptr.add(i) }
    }
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn at(&self, i: usize) -> &mut f64 {
        debug_assert!(i < self.len);
        unsafe { &mut *self.ptr.add(i) }
    }
}

/// Executes the unit-block schedule numerically. Returns a factor
/// bit-identical to [`crate::cholesky`].
///
/// Under a recorder scope the span `numeric.block_parallel` times the
/// whole call, `numeric.block.busy_ns` / `idle_ns` sum per-processor busy
/// and idle wall time over the simulated processors, and
/// `numeric.block.units` counts unit blocks executed.
pub fn cholesky_block_parallel(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
) -> Result<NumericFactor, NumericError> {
    let rec = &spfactor_trace::current();
    let recording = rec.is_recording();
    let _span = rec.span("numeric.block_parallel");
    let n = a.n();
    if n != symbolic.n() {
        return Err(NumericError::StructureMismatch(format!(
            "matrix is {n}, symbolic factor is {}",
            symbolic.n()
        )));
    }
    let nu = partition.num_units();
    let nprocs = assignment.nprocs;
    let entries = symbolic.num_entries();

    // Value array in entry-id layout, seeded with A (zeros where fill).
    let mut values = vec![0.0f64; entries];
    for j in 0..n {
        let rows = a.col_rows(j);
        let avals = a.col_values(j);
        values[j] = avals[0];
        for (&i, &v) in rows[1..].iter().zip(&avals[1..]) {
            let id = symbolic.entry_id(i, j).ok_or_else(|| {
                NumericError::StructureMismatch(format!("A({i}, {j}) not in factor"))
            })?;
            values[id] = v;
        }
    }

    // Per-unit work scripts. Updates are grouped by target column and
    // applied in ascending source-column order (the enumeration order of
    // `for_each_update` is ascending k, and we stable-sort by target
    // column), matching the sequential accumulation order per element.
    let owner = partition.owner_map();
    let eid = |i: usize, j: usize| symbolic.entry_id(i, j).expect("factor entry");
    let mut unit_ops: Vec<Vec<OpRec>> = vec![Vec::new(); nu];
    ops::for_each_update(symbolic, |op| {
        let tgt = eid(op.i, op.j);
        unit_ops[owner[tgt] as usize].push(OpRec {
            tgt: tgt as u32,
            s1: eid(op.i, op.k) as u32,
            s2: eid(op.j, op.k) as u32,
        });
    });
    // Column of each entry id, for grouping and the scale/sqrt phase.
    let col_of: Vec<u32> = (0..entries)
        .map(|id| symbolic.entry_coords(id).1 as u32)
        .collect();
    for ops_list in &mut unit_ops {
        ops_list.sort_by_key(|r| col_of[r.tgt as usize]);
    }
    // Owned entries per unit, sorted by (column, id): the scale loop
    // walks these in column order.
    let mut unit_entries: Vec<Vec<u32>> = vec![Vec::new(); nu];
    for (id, &u) in owner.iter().enumerate() {
        unit_entries[u as usize].push(id as u32);
    }
    for list in &mut unit_entries {
        list.sort_by_key(|&id| (col_of[id as usize], id));
    }

    // Scheduling state.
    let remaining: Vec<AtomicUsize> = (0..nu)
        .map(|u| AtomicUsize::new(deps.preds(u).len()))
        .collect();
    let done = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let first_error: std::sync::Mutex<Option<NumericError>> = std::sync::Mutex::new(None);
    let shared = SharedVals {
        ptr: values.as_mut_ptr(),
        len: values.len(),
    };

    const SENTINEL: usize = usize::MAX;
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel::unbounded::<usize>()).unzip();
    for u in 0..nu {
        if remaining[u].load(AtomicOrdering::Relaxed) == 0 {
            txs[assignment.proc_of(u)].send(u).expect("queue open");
        }
    }

    crossbeam::scope(|scope| {
        for (p, rx) in rxs.into_iter().enumerate() {
            let txs = &txs;
            let remaining = &remaining;
            let done = &done;
            let failed = &failed;
            let first_error = &first_error;
            let shared = &shared;
            let unit_ops = &unit_ops;
            let unit_entries = &unit_entries;
            let col_of = &col_of;
            scope.spawn(move |_| {
                let _ = p;
                // Per-processor tallies, merged into the recorder (if
                // any) once at exit so the hot loop stays lock-free; the
                // clock is read only when someone is listening.
                let mut busy_ns = 0u64;
                let mut idle_ns = 0u64;
                let mut units_run = 0u64;
                loop {
                    let wait = recording.then(Instant::now);
                    let Ok(u) = rx.recv() else { break };
                    if let Some(t) = wait {
                        idle_ns += t.elapsed().as_nanos() as u64;
                    }
                    if u == SENTINEL {
                        break;
                    }
                    let work = recording.then(Instant::now);
                    if !failed.load(AtomicOrdering::Acquire) {
                        // Interleave updates and finalization column by
                        // column: for each owned column (ascending), apply
                        // the update ops targeting it, then sqrt the
                        // diagonal (if owned) and scale owned off-diagonals.
                        // SAFETY: targets are owned by this unit; sources
                        // are either owned or published by completed
                        // predecessor units (happens-before through the
                        // dependency counters and channels).
                        let ops_list = &unit_ops[u];
                        let entries_list = &unit_entries[u];
                        let mut oi = 0usize;
                        let mut ei = 0usize;
                        while ei < entries_list.len() {
                            let col = col_of[entries_list[ei] as usize];
                            // 1. updates into this column's owned elements
                            while oi < ops_list.len() && col_of[ops_list[oi].tgt as usize] == col {
                                let r = ops_list[oi];
                                unsafe {
                                    let v = shared.read(r.s1 as usize) * shared.read(r.s2 as usize);
                                    *shared.at(r.tgt as usize) -= v;
                                }
                                oi += 1;
                            }
                            // 2. finalize owned elements of this column:
                            // diagonal sqrt, then scaling.
                            let start = ei;
                            while ei < entries_list.len()
                                && col_of[entries_list[ei] as usize] == col
                            {
                                ei += 1;
                            }
                            for &id in &entries_list[start..ei] {
                                let id = id as usize;
                                // Diagonal ids are exactly 0..n, so the
                                // diagonal of column `col` is id == col; it
                                // sorts before the strict entries (>= n)
                                // and is therefore finalized first.
                                if id == col as usize {
                                    // sqrt of the diagonal
                                    let d = unsafe { shared.read(id) };
                                    // NaN-safe: a plain `d <= 0.0` would
                                    // let a NaN pivot through.
                                    if d.is_nan() || d <= 0.0 {
                                        let mut e = first_error.lock().expect("error mutex");
                                        if e.is_none() {
                                            *e = Some(NumericError::NotPositiveDefinite(
                                                col as usize,
                                            ));
                                        }
                                        failed.store(true, AtomicOrdering::Release);
                                    } else {
                                        unsafe {
                                            *shared.at(id) = d.sqrt();
                                        }
                                    }
                                } else {
                                    // off-diagonal: scale by final L(j,j)
                                    let dj = unsafe { shared.read(col as usize) };
                                    if dj > 0.0 {
                                        unsafe {
                                            *shared.at(id) /= dj;
                                        }
                                    }
                                }
                            }
                        }
                        debug_assert_eq!(oi, ops_list.len());
                    }
                    // Release successors and detect completion.
                    for &s in deps.succs(u) {
                        let s = s as usize;
                        if remaining[s].fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
                            txs[assignment.proc_of(s)].send(s).expect("queue open");
                        }
                    }
                    if let Some(t) = work {
                        busy_ns += t.elapsed().as_nanos() as u64;
                        units_run += 1;
                    }
                    if done.fetch_add(1, AtomicOrdering::AcqRel) + 1 == nu {
                        for tx in txs.iter() {
                            let _ = tx.send(SENTINEL);
                        }
                        break;
                    }
                }
                rec.incr("numeric.block.busy_ns", busy_ns);
                rec.incr("numeric.block.idle_ns", idle_ns);
                rec.incr("numeric.block.units", units_run);
                rec.incr("numeric.block.threads", 1);
            });
        }
    })
    .expect("worker panicked");

    if let Some(e) = first_error.into_inner().expect("error mutex") {
        return Err(e);
    }

    // Repackage into NumericFactor layout.
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0usize);
    let mut rowidx = Vec::with_capacity(symbolic.nnz_strict_lower());
    for j in 0..n {
        rowidx.extend_from_slice(symbolic.col(j));
        colptr.push(rowidx.len());
    }
    let diag: Vec<f64> = values[..n].to_vec();
    let vals: Vec<f64> = values[n..].to_vec();
    Ok(NumericFactor::from_parts(n, diag, vals, colptr, rowidx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::cholesky;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::block_allocation;

    fn setup(
        p: &SymmetricPattern,
        grain: usize,
        nprocs: usize,
        seed: u64,
    ) -> (
        SymmetricCsc,
        SymbolicFactor,
        Partition,
        DepGraph,
        Assignment,
    ) {
        let perm = order(p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(grain));
        let deps = dependencies(&f, &part);
        let assign = block_allocation(&part, &deps, nprocs);
        (a, f, part, deps, assign)
    }

    #[test]
    fn block_schedule_execution_is_bit_identical() {
        for (p, grain, nprocs) in [
            (gen::lap9(8, 8), 4usize, 4usize),
            (gen::lap9(10, 10), 25, 8),
            (gen::grid5(7, 7), 4, 3),
            (gen::frame_shell(4, 10), 4, 5),
        ] {
            let (a, f, part, deps, assign) = setup(&p, grain, nprocs, 11);
            let seq = cholesky(&a, &f).unwrap();
            let par = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
            assert_eq!(par, seq, "grain {grain}, P {nprocs}");
        }
    }

    #[test]
    fn works_on_column_partition_too() {
        let p = gen::lap9(6, 6);
        let perm = order(&p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), 5);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::columns(&f);
        let deps = dependencies(&f, &part);
        let assign = spfactor_sched::wrap_allocation(&part, 4);
        let seq = cholesky(&a, &f).unwrap();
        let par = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn detects_indefiniteness() {
        use spfactor_matrix::Coo;
        let mut coo = Coo::new(3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 5.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let assign = block_allocation(&part, &deps, 2);
        assert!(matches!(
            cholesky_block_parallel(&a, &f, &part, &deps, &assign),
            Err(NumericError::NotPositiveDefinite(_))
        ));
    }

    #[test]
    fn single_processor_schedule_matches() {
        let (a, f, part, deps, assign) = setup(&gen::lap9(7, 7), 4, 1, 3);
        let seq = cholesky(&a, &f).unwrap();
        let par = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn many_processors_and_repeat_runs_are_stable() {
        let (a, f, part, deps, assign) = setup(&gen::lap9(9, 9), 4, 16, 7);
        let first = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
        for _ in 0..5 {
            let again = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
            assert_eq!(again, first, "nondeterministic execution detected");
        }
    }
}
