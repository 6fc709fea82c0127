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
use crate::unit::UnitKernel;
use crate::NumericError;
use crossbeam::channel;
use spfactor_matrix::SymmetricCsc;
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_symbolic::SymbolicFactor;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

/// Shared mutable value array. Safety protocol: every position is written
/// only by the unit that owns it (ownership is a partition), and reads of
/// other units' positions happen only after the dependency graph says the
/// writer completed — the completion signal travels through an
/// `AtomicUsize::fetch_sub(AcqRel)` and a channel send, both of which
/// establish happens-before.
struct SharedVals(*mut f64);
// SAFETY: the pointer is only dereferenced by `UnitKernel::run_shared`
// under the protocol above, which keeps concurrent accesses disjoint.
unsafe impl Send for SharedVals {}
unsafe impl Sync for SharedVals {}

/// Executes the unit-block schedule numerically. Returns a factor
/// bit-identical to [`crate::cholesky`], or the error it returns.
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
    let kernel = UnitKernel::new(symbolic, partition)?;
    UnitKernel::check_schedule(partition, deps, assignment)?;
    let mut values = kernel.seed(a)?;
    let nu = partition.num_units();
    let nprocs = assignment.nprocs;

    // Scheduling state.
    let remaining: Vec<AtomicUsize> = (0..nu)
        .map(|u| AtomicUsize::new(deps.preds(u).len()))
        .collect();
    let done = AtomicUsize::new(0);
    // A column whose pivot failed; once set, units stop computing and
    // only drain the schedule.
    const NO_FAILURE: usize = usize::MAX;
    let failed = AtomicUsize::new(NO_FAILURE);
    let shared = SharedVals(values.as_mut_ptr());

    const SENTINEL: usize = usize::MAX;
    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel::unbounded::<usize>()).unzip();
    for u in 0..nu {
        if remaining[u].load(AtomicOrdering::Relaxed) == 0 {
            txs[assignment.proc_of(u)].send(u).expect("queue open");
        }
    }

    crossbeam::scope(|scope| {
        for rx in rxs {
            let txs = &txs;
            let remaining = &remaining;
            let done = &done;
            let failed = &failed;
            let shared = &shared;
            let kernel = &kernel;
            scope.spawn(move |_| {
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
                    if failed.load(AtomicOrdering::Acquire) == NO_FAILURE {
                        // SAFETY: `values` has one slot per entry; the
                        // unit's targets are owned by it alone, and its
                        // sources are owned or were published by completed
                        // predecessor units (happens-before through the
                        // dependency counters and channels).
                        if let Err(col) = unsafe { kernel.run_shared(u, shared.0) } {
                            failed.store(col, AtomicOrdering::Release);
                        }
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

    match failed.into_inner() {
        NO_FAILURE => Ok(kernel.into_factor(values)),
        col => Err(kernel.pivot_error(a, col)),
    }
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
