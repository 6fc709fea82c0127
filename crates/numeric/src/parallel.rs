//! Parallel numeric factorization on the column dependency DAG.
//!
//! The paper's unit-block DAG refines the classic *column* DAG of sparse
//! Cholesky: column `j` may be computed once every column `k` with
//! `L(j,k) ≠ 0` has been computed. This module executes that DAG on real
//! threads (crossbeam scoped threads + a lock-free-ish ready queue) as an
//! end-to-end validation that the dependency analysis is sufficient: the
//! parallel factorization must produce **bit-identical** results to the
//! sequential left-looking code, because each column accumulates its
//! updates in the same ascending-`k` order.

use crate::factor::NumericFactor;
use crate::NumericError;
use crossbeam::channel;
use spfactor_matrix::SymmetricCsc;
use spfactor_symbolic::SymbolicFactor;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A finished column, published once and then shared read-only.
struct ColumnData {
    /// `L(j, j)`.
    diag: f64,
    /// Strict-lower values, aligned with the symbolic row list.
    vals: Vec<f64>,
}

/// Multi-threaded left-looking Cholesky over the column DAG.
///
/// Produces results bit-identical to [`crate::cholesky`]. Errors (loss of
/// positive definiteness) are detected exactly as in the sequential code.
///
/// Under a recorder scope the span `numeric.parallel` times the whole
/// call, `numeric.parallel.busy_ns` / `idle_ns` sum per-thread busy and
/// idle wall time across all workers, and `numeric.parallel.columns`
/// counts columns actually computed.
pub fn cholesky_parallel(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    nthreads: usize,
) -> Result<NumericFactor, NumericError> {
    let rec = &spfactor_trace::current();
    let recording = rec.is_recording();
    let _span = rec.span("numeric.parallel");
    let n = a.n();
    if n != symbolic.n() {
        return Err(NumericError::StructureMismatch(format!(
            "matrix is {n}, symbolic factor is {}",
            symbolic.n()
        )));
    }
    let nthreads = nthreads.max(1);
    if n == 0 {
        return Ok(NumericFactor::from_parts(
            0,
            vec![],
            vec![],
            vec![0],
            vec![],
        ));
    }

    // Column dependency counts: deps(j) = #{k < j : L(j,k) != 0} = the
    // length of row j of L.
    let rows = symbolic.row_structure();
    let dep_count: Vec<AtomicUsize> = (0..n)
        .map(|j| AtomicUsize::new(rows.row_count(j)))
        .collect();

    // Published column results.
    let columns: Vec<OnceLock<ColumnData>> = (0..n).map(|_| OnceLock::new()).collect();
    let done = AtomicUsize::new(0);
    let first_error: Mutex<Option<NumericError>> = Mutex::new(None);

    // Work queue. SENTINEL shuts workers down: the worker that finishes
    // the last column injects it, and every worker forwards it before
    // exiting so all threads terminate.
    const SENTINEL: usize = usize::MAX;
    let (tx, rx) = channel::unbounded::<usize>();
    for (j, dc) in dep_count.iter().enumerate() {
        if dc.load(AtomicOrdering::Relaxed) == 0 {
            tx.send(j).expect("queue open");
        }
    }

    crossbeam::scope(|scope| {
        for _ in 0..nthreads {
            let rx = rx.clone();
            let tx = tx.clone();
            let columns = &columns;
            let dep_count = &dep_count;
            let done = &done;
            let first_error = &first_error;
            scope.spawn(move |_| {
                // Per-thread tallies, merged into the recorder (if any)
                // once at thread exit so the hot loop stays lock-free;
                // the clock is read only when someone is listening.
                let mut busy_ns = 0u64;
                let mut idle_ns = 0u64;
                let mut cols_done = 0u64;
                loop {
                    let wait = recording.then(Instant::now);
                    let Ok(j) = rx.recv() else { break };
                    if let Some(t) = wait {
                        idle_ns += t.elapsed().as_nanos() as u64;
                    }
                    if j == SENTINEL {
                        let _ = tx.send(SENTINEL);
                        break;
                    }
                    let work = recording.then(Instant::now);
                    // Compute column j left-looking.
                    let struct_j = symbolic.col(j);
                    let mut acc: Vec<f64> = vec![0.0; struct_j.len()];
                    // Position of each row in acc (local dense map would
                    // be O(n); binary search keeps it allocation-free).
                    let pos_of = |i: usize| struct_j.binary_search(&i).expect("row in struct");
                    let a_rows = a.col_rows(j);
                    let a_vals = a.col_values(j);
                    let mut dj = a_vals[0];
                    for (&i, &v) in a_rows[1..].iter().zip(&a_vals[1..]) {
                        acc[pos_of(i)] = v;
                    }
                    // Updating columns: all k < j with L(j,k) != 0, in
                    // ascending order for bit-identical accumulation —
                    // row j of L, with the position of j in column k.
                    for &(k, pj) in rows.row(j) {
                        let (k, pj) = (k as usize, pj as usize);
                        let col_k = columns[k].get().expect("dependency published");
                        let rows_k = symbolic.col(k);
                        let ljk = col_k.vals[pj];
                        dj -= ljk * ljk;
                        for (&i, &v) in rows_k[pj + 1..].iter().zip(&col_k.vals[pj + 1..]) {
                            acc[pos_of(i)] -= ljk * v;
                        }
                    }
                    // NaN-safe: a plain `dj <= 0.0` would let a NaN pivot through.
                    if dj.is_nan() || dj <= 0.0 {
                        let mut e = first_error.lock().expect("error mutex");
                        match &*e {
                            Some(NumericError::NotPositiveDefinite(prev)) if *prev <= j => {}
                            _ => *e = Some(NumericError::NotPositiveDefinite(j)),
                        }
                        // Publish a poison column so successors don't block.
                        let _ = columns[j].set(ColumnData {
                            diag: f64::NAN,
                            vals: vec![f64::NAN; struct_j.len()],
                        });
                    } else {
                        let ljj = dj.sqrt();
                        for v in &mut acc {
                            *v /= ljj;
                        }
                        columns[j]
                            .set(ColumnData {
                                diag: ljj,
                                vals: acc,
                            })
                            .ok()
                            .expect("column published once");
                    }
                    // Release successors.
                    for &i in struct_j {
                        if dep_count[i].fetch_sub(1, AtomicOrdering::AcqRel) == 1 {
                            tx.send(i).expect("queue open");
                        }
                    }
                    if let Some(t) = work {
                        busy_ns += t.elapsed().as_nanos() as u64;
                        cols_done += 1;
                    }
                    if done.fetch_add(1, AtomicOrdering::AcqRel) + 1 == n {
                        // All columns finished: start the shutdown wave.
                        let _ = tx.send(SENTINEL);
                        break;
                    }
                }
                rec.incr("numeric.parallel.busy_ns", busy_ns);
                rec.incr("numeric.parallel.idle_ns", idle_ns);
                rec.incr("numeric.parallel.columns", cols_done);
                rec.incr("numeric.parallel.threads", 1);
            });
        }
        drop(tx);
    })
    .expect("worker panicked");

    if let Some(e) = first_error.into_inner().expect("error mutex") {
        return Err(e);
    }

    // Assemble the NumericFactor.
    let mut vals = Vec::with_capacity(symbolic.nnz_strict_lower());
    let mut diag = Vec::with_capacity(n);
    for cell in &columns {
        let col = cell.get().expect("all columns computed");
        diag.push(col.diag);
        vals.extend_from_slice(&col.vals);
    }
    Ok(NumericFactor::from_parts(
        n,
        diag,
        vals,
        symbolic.colptr().to_vec(),
        symbolic.rowidx().to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factor::cholesky;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn spd(p: &SymmetricPattern, seed: u64) -> (SymmetricCsc, SymbolicFactor) {
        let perm = order(p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        (a, f)
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (a, f) = spd(&gen::lap9(8, 8), 11);
        let seq = cholesky(&a, &f).unwrap();
        for nthreads in [1, 2, 4, 8] {
            let par = cholesky_parallel(&a, &f, nthreads).unwrap();
            assert_eq!(par, seq, "nthreads = {nthreads}");
        }
    }

    #[test]
    fn parallel_on_various_structures() {
        for (p, seed) in [
            (gen::grid5(6, 6), 1u64),
            (gen::power_network(60, 12, 2), 2),
            (gen::frame_shell(5, 8), 3),
            (gen::lshape(3), 4),
        ] {
            let (a, f) = spd(&p, seed);
            let seq = cholesky(&a, &f).unwrap();
            let par = cholesky_parallel(&a, &f, 4).unwrap();
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn parallel_detects_indefiniteness() {
        use spfactor_matrix::Coo;
        let mut coo = Coo::new(3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 3.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let r = cholesky_parallel(&a, &f, 2);
        assert!(matches!(r, Err(NumericError::NotPositiveDefinite(_))));
    }

    #[test]
    fn empty_and_tiny_matrices() {
        use spfactor_matrix::Coo;
        let a = Coo::new(0).to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        assert!(cholesky_parallel(&a, &f, 4).is_ok());
        let mut coo = Coo::new(1);
        coo.push(0, 0, 16.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let l = cholesky_parallel(&a, &f, 4).unwrap();
        assert_eq!(l.diag(0), 4.0);
    }
}
