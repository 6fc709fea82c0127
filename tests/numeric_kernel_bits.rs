//! Pinned bits: the supernode-blocked, column-pairing `numeric::cholesky`
//! and the lane-interleaved `solve_many(_permuted)` must return exactly
//! what the kernels they replaced returned.
//!
//! The oracles below are those kernels, kept verbatim: a left-looking
//! factorization that applies one source column at a time to one target
//! column at a time, from row lists it builds as columns finish, and one
//! forward plus one backward substitution per right-hand side. Blocking
//! by supernode only changes how many sources ride one gather of an
//! accumulator entry, and pairing two columns of a supernode only puts
//! two target entries side by side in one register; neither changes the
//! order in which one entry receives its subtractions, so equality here
//! is `==` on `NumericFactor` and on every solution vector — no
//! tolerance.
//!
//! The same goes for the unit-block kernel under both schedule executors
//! (`numeric::unit`): the per-unit scripts the executors used to build by
//! replaying every update pair are kept here as the oracle of its walk.

use proptest::prelude::*;
use spfactor::matrix::gen::{self, paper};
use spfactor::matrix::Coo;
use spfactor::matrix::SymmetricCsc;
use spfactor::numeric::solve::{lower_solve, residual_norm, upper_solve};
use spfactor::numeric::unit::{Step, UnitKernel};
use spfactor::numeric::{
    cholesky, cholesky_block_parallel, solve_many, solve_many_permuted, NumericFactor,
};
use spfactor::order::{order, Ordering};
use spfactor::partition::{build_dependencies, dependencies};
use spfactor::symbolic::ops;
use spfactor::{
    mp, sched, Assignment, DepGraph, DepsEngine, MpError, NetworkModel, NumericError, Partition,
    PartitionParams, Permutation, SymbolicFactor, SymmetricPattern,
};
use std::time::{Duration, Instant};

/// The kernel `numeric::cholesky` had before it read the factor's row
/// structure, statement for statement.
fn oracle_cholesky(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
) -> Result<NumericFactor, NumericError> {
    let n = a.n();
    if n != symbolic.n() {
        return Err(NumericError::StructureMismatch(format!(
            "matrix is {n}, symbolic factor is {}",
            symbolic.n()
        )));
    }
    let mut colptr = Vec::with_capacity(n + 1);
    colptr.push(0);
    let mut rowidx: Vec<usize> = Vec::with_capacity(symbolic.nnz_strict_lower());
    for j in 0..n {
        rowidx.extend_from_slice(symbolic.col(j));
        colptr.push(rowidx.len());
    }
    let mut diag = vec![0.0f64; n];
    let mut vals = vec![0.0f64; rowidx.len()];
    let mut row_cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n]; // (k, pos)
    let mut acc = vec![0.0f64; n];

    for j in 0..n {
        let struct_j = &rowidx[colptr[j]..colptr[j + 1]];
        let a_rows = a.col_rows(j);
        let a_vals = a.col_values(j);
        if a_rows.first() != Some(&j) {
            return Err(NumericError::StructureMismatch(format!(
                "column {j} of A does not start with its diagonal"
            )));
        }
        let mut dj = a_vals[0];
        for (&i, &v) in a_rows[1..].iter().zip(&a_vals[1..]) {
            if !symbolic.contains(i, j) {
                return Err(NumericError::StructureMismatch(format!(
                    "A({i}, {j}) not present in symbolic factor"
                )));
            }
            acc[i] = v;
        }
        for &(k, pos) in &row_cols[j] {
            let ljk = vals[pos];
            dj -= ljk * ljk;
            let e = colptr[k + 1];
            for idx in (pos + 1)..e {
                let i = rowidx[idx];
                acc[i] -= ljk * vals[idx];
            }
        }
        if dj.is_nan() || dj <= 0.0 {
            return Err(NumericError::NotPositiveDefinite(j));
        }
        let ljj = dj.sqrt();
        diag[j] = ljj;
        for (off, &i) in struct_j.iter().enumerate() {
            let pos = colptr[j] + off;
            let v = acc[i] / ljj;
            vals[pos] = v;
            acc[i] = 0.0;
            row_cols[i].push((j, pos));
        }
    }
    Ok(NumericFactor::from_parts(n, diag, vals, colptr, rowidx))
}

/// `solve_many` as it was: both triangles streamed once per right-hand
/// side.
fn oracle_solve_many(l: &NumericFactor, rhs: &[Vec<f64>]) -> Vec<Vec<f64>> {
    rhs.iter()
        .map(|b| {
            let mut x = b.clone();
            lower_solve(l, &mut x);
            upper_solve(l, &mut x);
            x
        })
        .collect()
}

/// `solve_many_permuted` as it was.
fn oracle_solve_many_permuted(
    l: &NumericFactor,
    perm: &Permutation,
    rhs: &[Vec<f64>],
) -> Vec<Vec<f64>> {
    rhs.iter()
        .map(|b| {
            let mut u = perm.apply(b);
            lower_solve(l, &mut u);
            upper_solve(l, &mut u);
            perm.apply_inverse(&u)
        })
        .collect()
}

/// The per-unit work scripts both schedule executors built before they
/// shared `numeric::unit` — every update pair of the factorization
/// replayed, three `entry_id` searches each, grouped by owning unit and
/// stable-sorted by target column; owned entries sorted by `(column, id)`
/// — followed by their per-column execution loop, recorded as steps.
fn oracle_unit_scripts(symbolic: &SymbolicFactor, partition: &Partition) -> Vec<Vec<Step>> {
    let nu = partition.num_units();
    let entries = symbolic.num_entries();
    let owner = partition.ownership(symbolic);
    let eid = |i: usize, j: usize| symbolic.entry_id(i, j).expect("factor entry");
    let mut unit_ops: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); nu];
    ops::for_each_update(symbolic, |op| {
        let tgt = eid(op.i, op.j);
        unit_ops[owner[tgt] as usize].push((
            tgt as u32,
            eid(op.i, op.k) as u32,
            eid(op.j, op.k) as u32,
        ));
    });
    let col_of: Vec<u32> = (0..entries)
        .map(|id| symbolic.entry_coords(id).1 as u32)
        .collect();
    for ops_list in &mut unit_ops {
        ops_list.sort_by_key(|r| col_of[r.0 as usize]);
    }
    let mut unit_entries: Vec<Vec<u32>> = vec![Vec::new(); nu];
    for (id, &u) in owner.iter().enumerate() {
        unit_entries[u as usize].push(id as u32);
    }
    for list in &mut unit_entries {
        list.sort_by_key(|&id| (col_of[id as usize], id));
    }

    (0..nu)
        .map(|u| {
            let (ops_list, entries_list) = (&unit_ops[u], &unit_entries[u]);
            let mut steps = Vec::new();
            let (mut oi, mut ei) = (0usize, 0usize);
            while ei < entries_list.len() {
                let col = col_of[entries_list[ei] as usize];
                while oi < ops_list.len() && col_of[ops_list[oi].0 as usize] == col {
                    let (tgt, s1, s2) = ops_list[oi];
                    steps.push(Step::Update {
                        tgt: tgt as usize,
                        s1: s1 as usize,
                        s2: s2 as usize,
                    });
                    oi += 1;
                }
                let start = ei;
                while ei < entries_list.len() && col_of[entries_list[ei] as usize] == col {
                    ei += 1;
                }
                for &id in &entries_list[start..ei] {
                    steps.push(if id == col {
                        Step::Pivot(col as usize)
                    } else {
                        Step::Scale {
                            id: id as usize,
                            diag: col as usize,
                        }
                    });
                }
            }
            assert_eq!(
                oi,
                ops_list.len(),
                "update into a column the unit owns nothing of"
            );
            steps
        })
        .collect()
}

const ORDERINGS: [Ordering; 4] = [
    Ordering::Natural,
    Ordering::ReverseCuthillMcKee,
    Ordering::MultipleMinimumDegree { delta: 0 },
    Ordering::NestedDissection,
];

fn rhs_set(n: usize, count: usize) -> Vec<Vec<f64>> {
    (0..count)
        .map(|k| {
            (0..n)
                .map(|i| ((i * (k + 3)) as f64 * 0.37).sin() + k as f64 - 1.5)
                .collect()
        })
        .collect()
}

/// Longest run of consecutive same-supernode sources in each row, as a
/// set of lengths capped at 5 — which of the kernel's 4/2/1 paths and
/// their combinations a subject reaches.
fn run_lengths(f: &SymbolicFactor, seen: &mut [bool; 6]) {
    let rows = f.row_structure();
    for j in 0..f.n() {
        let mut run = 0usize;
        let mut prev = u32::MAX;
        for &(k, _) in rows.row(j) {
            let sn = rows.supernode_of(k as usize);
            if sn != prev && run > 0 {
                seen[run.min(5)] = true;
                run = 0;
            }
            prev = sn;
            run += 1;
        }
        if run > 0 {
            seen[run.min(5)] = true;
        }
    }
}

/// The first columns of the kernel's two-column panels: `numeric::cholesky`
/// pairs columns `j, j + 1` of one fundamental supernode, from the
/// supernode's first column on, and factors every other column alone.
fn panel_starts(f: &SymbolicFactor) -> Vec<usize> {
    let rows = f.row_structure();
    let (mut starts, mut j) = (Vec::new(), 0);
    while j < f.n() {
        if j + 1 < f.n() && rows.supernode_of(j) == rows.supernode_of(j + 1) {
            starts.push(j);
            j += 2;
        } else {
            j += 1;
        }
    }
    starts
}

/// Which of the kernel's panel paths a factor reaches. A panel `(j, j+1)`
/// merges the supernode runs of rows `j` and `j + 1` (the latter without
/// its last source, column `j` itself). `seen`: a run that reaches both
/// columns, one that reaches only the first, one that reaches only the
/// second; a column factored alone; a supernode of odd width ≥ 3, whose
/// last column is left over after its pairs.
fn panel_paths(f: &SymbolicFactor, seen: &mut [bool; 5]) {
    let rows = f.row_structure();
    let ids = |list: &[(u32, u32)]| {
        let mut ids: Vec<u32> = list
            .iter()
            .map(|&(k, _)| rows.supernode_of(k as usize))
            .collect();
        ids.dedup();
        ids
    };
    let starts = panel_starts(f);
    for &j in &starts {
        let row = rows.row(j + 1);
        assert_eq!(row.last(), Some(&(j as u32, 0)), "L(j+1, j) ends row j+1");
        let (first, second) = (ids(rows.row(j)), ids(&row[..row.len() - 1]));
        seen[0] |= first.iter().any(|id| second.contains(id));
        seen[1] |= first.iter().any(|id| !second.contains(id));
        seen[2] |= second.iter().any(|id| !first.contains(id));
    }
    seen[3] |= 2 * starts.len() < f.n();
    let mut start = 0;
    for j in 1..=f.n() {
        if j == f.n() || rows.supernode_of(j) != rows.supernode_of(start) {
            let width = j - start;
            seen[4] |= width >= 3 && width % 2 == 1;
            start = j;
        }
    }
}

/// `==` on `NumericFactor` and, value by value, on the bits: `==` on
/// `f64` cannot tell `-0.0` from `0.0`.
fn assert_same_bits(got: &NumericFactor, want: &NumericFactor, what: &str) {
    assert!(got == want, "{what}: factor");
    for j in 0..want.n() {
        assert_eq!(
            got.diag(j).to_bits(),
            want.diag(j).to_bits(),
            "{what}: L({j}, {j})"
        );
        for ((&i, g), w) in want
            .col_rows(j)
            .iter()
            .zip(got.col_vals(j))
            .zip(want.col_vals(j))
        {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: L({i}, {j})");
        }
    }
}

/// Factor and solves of `pattern` under `method`, new against old;
/// returns the symbolic factor they ran on.
fn assert_bits(
    pattern: &SymmetricPattern,
    method: Ordering,
    seed: u64,
    what: &str,
) -> SymbolicFactor {
    let perm = order(pattern, method);
    let a = gen::spd_from_pattern(pattern, seed);
    let pa = a.permute(&perm);
    let f = SymbolicFactor::from_pattern(&pa.pattern());
    let want = oracle_cholesky(&pa, &f).expect("SPD");
    let got = cholesky(&pa, &f).expect("SPD");
    assert_eq!(got, want, "{what} {method:?}: factor");
    // A clone made before the row structure existed shares it.
    assert_eq!(cholesky(&pa, &f.clone()).expect("SPD"), want);
    for count in [0usize, 1, 3, 8, 9, 17] {
        let rhs = rhs_set(a.n(), count);
        assert_eq!(
            solve_many(&got, &rhs),
            oracle_solve_many(&want, &rhs),
            "{what} {method:?}: solve_many x{count}"
        );
        assert_eq!(
            solve_many_permuted(&got, &perm, &rhs),
            oracle_solve_many_permuted(&want, &perm, &rhs),
            "{what} {method:?}: solve_many_permuted x{count}"
        );
    }
    f
}

fn subjects() -> Vec<(String, SymmetricPattern)> {
    let mut all: Vec<(String, SymmetricPattern)> = paper::all()
        .into_iter()
        .map(|m| (m.name.to_string(), m.pattern))
        .collect();
    for side in [8usize, 13, 21, 40] {
        all.push((format!("lap9 {side}²"), gen::lap9(side, side)));
    }
    all.push(("grid5_fe(20,20)".into(), gen::grid5_fe(20, 20)));
    all.push(("frame_shell(6,12)".into(), gen::frame_shell(6, 12)));
    all.push((
        "power_network(400,40,5)".into(),
        gen::power_network(400, 40, 5),
    ));
    all
}

#[test]
fn kernel_matches_oracle_on_every_subject_and_ordering() {
    let mut seen = [false; 6];
    for (name, pattern) in subjects() {
        for (s, method) in ORDERINGS.into_iter().enumerate() {
            let f = assert_bits(&pattern, method, 11 + s as u64, &name);
            run_lengths(&f, &mut seen);
        }
    }
    assert_eq!(
        seen,
        [false, true, true, true, true, true],
        "supernode runs of length 1, 2, 3, 4 and 5+ must all occur"
    );
}

#[test]
fn kernel_matches_oracle_on_the_benchmark_grid() {
    // lap9 80² under MMD: the repository benchmark's `factor_grid`.
    assert_bits(&gen::lap9(80, 80), Ordering::paper_default(), 5, "lap9 80²");
}

#[test]
fn panel_paths_all_occur_on_the_subjects() {
    let mut seen = [false; 5];
    for (_, pattern) in subjects() {
        for method in ORDERINGS {
            let perm = order(&pattern, method);
            panel_paths(
                &SymbolicFactor::from_pattern(&pattern.permute(&perm)),
                &mut seen,
            );
        }
    }
    assert_eq!(
        seen, [true; 5],
        "runs reaching both columns of a panel, only the first and only the second, \
         columns factored alone and odd-width supernodes must all occur"
    );
}

/// `A = L₀ L₀ᵀ` on `f`'s structure, pushed into a `Coo` one product at a
/// time. `L₀` has 2 on the diagonal and 1, −1, 0.5, −0.0 below it in
/// turn, so every sum is exact: duplicates cancel to zero wherever the
/// products do, an entry whose only product is `−0.0 · 2` stays `−0.0`,
/// and the factor is `L₀` up to the signs of its zeros — which the order
/// of the subtractions decides.
fn exact_product(f: &SymbolicFactor) -> SymmetricCsc {
    const BELOW: [f64; 4] = [1.0, -1.0, 0.5, -0.0];
    let mut coo = Coo::new(f.n());
    let mut t = 0;
    for k in 0..f.n() {
        let mut col = vec![(k, 2.0)];
        for &i in f.col(k) {
            col.push((i, BELOW[t % 4]));
            t += 1;
        }
        for (x, &(r, u)) in col.iter().enumerate() {
            for &(c, v) in &col[..=x] {
                coo.push(r, c, u * v).expect("in bounds");
            }
        }
    }
    coo.to_csc()
}

#[test]
fn signed_zeros_and_exact_cancellations_keep_the_oracles_bits() {
    for (name, pattern, method) in [
        ("lap9 12²", gen::lap9(12, 12), Ordering::paper_default()),
        ("DWT512", paper::dwt512().pattern, Ordering::paper_default()),
        (
            "grid5_fe(10,10)",
            gen::grid5_fe(10, 10),
            Ordering::NestedDissection,
        ),
    ] {
        let perm = order(&pattern, method);
        let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
        let a = exact_product(&f);
        let want = oracle_cholesky(&a, &f).expect("SPD");
        assert_same_bits(&cholesky(&a, &f).expect("SPD"), &want, name);
        let zeros: Vec<f64> = (0..f.n())
            .flat_map(|j| want.col_vals(j).iter().copied())
            .filter(|&v| v == 0.0)
            .collect();
        assert!(
            zeros.iter().any(|v| v.is_sign_negative())
                && zeros.iter().any(|v| v.is_sign_positive()),
            "{name}: both signed zeros in the factor"
        );
    }
}

/// lap9 9² under MMD with good SPD values, its first panel `(j, j + 1)`
/// with a row `i` outside column `j + 1`'s structure, and `A` rebuilt with
/// an entry `(i, j + 1)` added and diagonal `j` replaced, if given.
fn panel_with_foreign_entry() -> (SymbolicFactor, usize, impl Fn(Option<f64>) -> SymmetricCsc) {
    let p = gen::lap9(9, 9);
    let perm = order(&p, Ordering::paper_default());
    let pp = p.permute(&perm);
    let f = SymbolicFactor::from_pattern(&pp);
    let good = gen::spd_from_pattern(&pp, 2);
    let (j, i) = panel_starts(&f)
        .into_iter()
        .find_map(|j| {
            ((j + 2)..f.n())
                .find(|&i| !f.contains(i, j + 1))
                .map(|i| (j, i))
        })
        .expect("a panel with a row outside its second column");
    let with = move |diag_j: Option<f64>| {
        let mut coo = Coo::new(good.n());
        for c in 0..good.n() {
            for (&r, &v) in good.col_rows(c).iter().zip(good.col_values(c)) {
                let v = if (r, c) == (j, j) {
                    diag_j.unwrap_or(v)
                } else {
                    v
                };
                coo.push(r, c, v).expect("in bounds");
            }
        }
        coo.push(i, j + 1, 0.25).expect("in bounds");
        coo.to_csc()
    };
    (f, j, with)
}

#[test]
fn a_failing_first_pivot_outranks_the_second_columns_structure() {
    let (f, j, with) = panel_with_foreign_entry();
    for bad in [-1.0, 0.0, f64::NAN] {
        let a = with(Some(bad));
        let want = oracle_cholesky(&a, &f);
        assert_eq!(want, Err(NumericError::NotPositiveDefinite(j)));
        assert_eq!(cholesky(&a, &f), want, "diagonal {j} = {bad}");
    }
}

#[test]
fn the_second_columns_structure_fails_once_the_first_pivot_holds() {
    let (f, j, with) = panel_with_foreign_entry();
    let a = with(None);
    let want = oracle_cholesky(&a, &f);
    let Err(NumericError::StructureMismatch(msg)) = &want else {
        panic!("oracle: {want:?}");
    };
    assert!(
        msg.ends_with(&format!(", {}) not present in symbolic factor", j + 1)),
        "{msg}"
    );
    assert_eq!(cholesky(&a, &f), want);
}

#[test]
fn failures_are_the_oracles_failures() {
    let p = gen::lap9(9, 9);
    let perm = order(&p, Ordering::paper_default());
    let pp = p.permute(&perm);
    let f = SymbolicFactor::from_pattern(&pp);
    let good = gen::spd_from_pattern(&pp, 2);
    // Rebuilds `good` with one value replaced.
    let with_value = |col: usize, row: usize, v: f64| {
        let mut colptr = vec![0usize];
        let (mut rowidx, mut values) = (Vec::new(), Vec::new());
        for j in 0..good.n() {
            for (&i, &x) in good.col_rows(j).iter().zip(good.col_values(j)) {
                rowidx.push(i);
                values.push(if (i, j) == (row, col) { v } else { x });
            }
            colptr.push(rowidx.len());
        }
        SymmetricCsc::from_parts(good.n(), colptr, rowidx, values).expect("same structure")
    };
    for col in [0usize, 17, 40, 80] {
        for bad in [-1.0, 0.0, f64::NAN] {
            let a = with_value(col, col, bad);
            let want = oracle_cholesky(&a, &f);
            assert_eq!(want, Err(NumericError::NotPositiveDefinite(col)));
            assert_eq!(cholesky(&a, &f), want, "diagonal {col} = {bad}");
        }
    }
    // A NaN below the diagonal surfaces at the first pivot it reaches.
    let (col, row) = (3usize, good.col_rows(3)[1]);
    let a = with_value(col, row, f64::NAN);
    let want = oracle_cholesky(&a, &f);
    assert!(matches!(want, Err(NumericError::NotPositiveDefinite(_))));
    assert_eq!(cholesky(&a, &f), want);
    // Values on a structure the symbolic factor does not contain.
    let other = gen::spd_from_pattern(&gen::grid5(9, 9), 2);
    let f5 = SymbolicFactor::from_pattern(&other.pattern());
    let want = oracle_cholesky(&good, &f5);
    assert!(matches!(want, Err(NumericError::StructureMismatch(_))));
    assert_eq!(cholesky(&good, &f5), want);
}

/// A 12-column matrix with two pivots that fail independently: a path
/// 0–9 whose last diagonal is −5, and the pair 10–11 with `A(10,10) = −1`.
/// Column 10 waits for nothing, column 9 for the whole path, so a
/// parallel executor meets 10 first; the sequential kernel stops at 9.
fn two_failing_pivots() -> SymmetricCsc {
    let mut colptr = vec![0usize];
    let (mut rowidx, mut values) = (Vec::new(), Vec::new());
    for j in 0..12usize {
        rowidx.push(j);
        values.push(match j {
            9 => -5.0,
            10 => -1.0,
            _ => 4.0,
        });
        if j != 9 && j != 11 {
            rowidx.push(j + 1);
            values.push(-1.0);
        }
        colptr.push(rowidx.len());
    }
    SymmetricCsc::from_parts(12, colptr, rowidx, values).expect("valid CSC")
}

#[test]
fn executors_report_the_sequential_kernels_pivot() {
    let a = two_failing_pivots();
    let f = SymbolicFactor::from_pattern(&a.pattern());
    let want = Err(NumericError::NotPositiveDefinite(9));
    assert_eq!(oracle_cholesky(&a, &f), want);
    assert_eq!(cholesky(&a, &f), want);
    let part = Partition::columns(&f);
    let deps = dependencies(&f, &part);
    let assign = sched::wrap_allocation(&part, 2);
    for _ in 0..20 {
        assert_eq!(cholesky_block_parallel(&a, &f, &part, &deps, &assign), want);
    }
    for run in 0..200 {
        assert_eq!(
            mp::execute(&a, &f, &part, &deps, &assign, &NetworkModel::free()).map(|r| r.factor),
            Err(MpError::Numeric(NumericError::NotPositiveDefinite(9))),
            "mp run {run}"
        );
    }
}

/// Schedule inputs built for different partitions: on lap9 8² at P = 4
/// the grain-4 block partition has 72 units and `Partition::columns` 64.
/// Both executors refuse every mix with a typed error before a thread
/// spawns; a worker indexing out of bounds would leave mp to its 10 s
/// watchdog, hence the time bound.
#[test]
fn executors_reject_mismatched_schedule_inputs() {
    let p = gen::lap9(8, 8);
    let perm = order(&p, Ordering::paper_default());
    let a = gen::spd_from_pattern(&p.permute(&perm), 11);
    let f = SymbolicFactor::from_pattern(&a.pattern());
    let block = Partition::build(&f, &PartitionParams::with_grain(4));
    let cols = Partition::columns(&f);
    assert_eq!((block.num_units(), cols.num_units()), (72, 64));
    let (deps_block, deps_cols) = (dependencies(&f, &block), dependencies(&f, &cols));
    let assign_block = sched::block_allocation(&block, &deps_block, 4);
    let assign_cols = sched::wrap_allocation(&cols, 4);
    let mut beyond = assign_block.clone();
    beyond.proc_of_unit[0] = 4;
    // The same grid in its natural order: as many columns, another
    // structure, and a schedule consistent with its own partition.
    let natural = SymbolicFactor::from_pattern(&p);
    assert_eq!(natural.n(), f.n());
    assert_ne!(natural.num_entries(), f.num_entries());
    let other = Partition::build(&natural, &PartitionParams::with_grain(4));
    let deps_other = dependencies(&natural, &other);
    let assign_other = sched::block_allocation(&other, &deps_other, 4);
    let cases: [(&str, &Partition, &DepGraph, &Assignment); 6] = [
        (
            "partition of another factor",
            &other,
            &deps_other,
            &assign_other,
        ),
        (
            "dependency graph of another partition",
            &block,
            &deps_cols,
            &assign_block,
        ),
        (
            "assignment of another partition",
            &block,
            &deps_block,
            &assign_cols,
        ),
        ("processor id beyond nprocs", &block, &deps_block, &beyond),
        (
            "columns' graph and assignment",
            &block,
            &deps_cols,
            &assign_cols,
        ),
        (
            "blocks' graph and assignment",
            &cols,
            &deps_block,
            &assign_block,
        ),
    ];
    let quick = Duration::from_secs(1);
    for (what, part, deps, assign) in cases {
        let t = Instant::now();
        let got = cholesky_block_parallel(&a, &f, part, deps, assign);
        assert!(
            matches!(got, Err(NumericError::StructureMismatch(_))),
            "block-parallel, {what}: {got:?}"
        );
        assert!(
            t.elapsed() < quick,
            "block-parallel, {what}: {:?}",
            t.elapsed()
        );
        let t = Instant::now();
        let got = mp::execute(&a, &f, part, deps, assign, &NetworkModel::free());
        assert!(
            matches!(
                got,
                Err(MpError::Numeric(NumericError::StructureMismatch(_)))
            ),
            "mp, {what}: {:?}",
            got.map(|r| r.nprocs)
        );
        assert!(t.elapsed() < quick, "mp, {what}: {:?}", t.elapsed());
    }
}

/// The subjects of the unit-kernel pins: name, SPD values under MMD,
/// symbolic factor.
fn unit_subjects() -> Vec<(String, SymmetricCsc, SymbolicFactor)> {
    let mut patterns: Vec<(String, SymmetricPattern)> = paper::all()
        .into_iter()
        .map(|m| (m.name.to_string(), m.pattern))
        .collect();
    for side in [8usize, 21, 40] {
        patterns.push((format!("lap9 {side}²"), gen::lap9(side, side)));
    }
    patterns.push((
        "power_network(400,40,5)".into(),
        gen::power_network(400, 40, 5),
    ));
    patterns
        .into_iter()
        .map(|(name, pattern)| {
            let perm = order(&pattern, Ordering::paper_default());
            let a = gen::spd_from_pattern(&pattern.permute(&perm), 13);
            let f = SymbolicFactor::from_pattern(&a.pattern());
            (name, a, f)
        })
        .collect()
}

fn unit_partitions(f: &SymbolicFactor) -> [(&'static str, Partition); 3] {
    [
        (
            "block g4",
            Partition::build(f, &PartitionParams::with_grain(4)),
        ),
        (
            "block g25",
            Partition::build(f, &PartitionParams::with_grain(25)),
        ),
        ("wrap", Partition::columns(f)),
    ]
}

#[test]
fn unit_walk_is_the_script_replay() {
    for (name, _, f) in unit_subjects() {
        for (scheme, part) in unit_partitions(&f) {
            let kernel = UnitKernel::new(&f, &part).expect("partition of this factor");
            let oracle = oracle_unit_scripts(&f, &part);
            for (u, want) in oracle.iter().enumerate() {
                let mut got = Vec::with_capacity(want.len());
                let walked: Result<(), ()> = kernel.walk(u, |step| {
                    got.push(step);
                    Ok(())
                });
                assert_eq!(walked, Ok(()));
                assert!(
                    got == *want,
                    "{name} {scheme}: unit {u} walks another script"
                );
            }
        }
    }
}

#[test]
fn units_run_in_topological_order_match_cholesky() {
    for (name, a, f) in unit_subjects() {
        let want = cholesky(&a, &f).expect("SPD");
        for (scheme, part) in unit_partitions(&f) {
            let kernel = UnitKernel::new(&f, &part).expect("partition of this factor");
            let mut values = kernel.seed(&a).expect("A inside the factor");
            let mut work = 0usize;
            let deps = build_dependencies(DepsEngine::Sweep, &f, &part);
            for u in sched::topological_order(&deps) {
                work += kernel.run(u as usize, &mut values).expect("SPD");
            }
            assert_eq!(work, f.paper_work(), "{name} {scheme}: work");
            assert_eq!(kernel.into_factor(values), want, "{name} {scheme}: factor");
        }
    }
}

#[test]
fn row_structure_is_the_naive_transpose() {
    for (name, pattern) in subjects() {
        let perm = order(&pattern, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
        let mut naive: Vec<Vec<(u32, u32)>> = vec![Vec::new(); f.n()];
        for k in 0..f.n() {
            for (pos, &i) in f.col(k).iter().enumerate() {
                naive[i].push((k as u32, pos as u32));
            }
        }
        let rows = f.row_structure();
        for (j, want) in naive.iter().enumerate() {
            assert_eq!(rows.row(j), &want[..], "{name}: row {j}");
        }
    }
}

#[test]
fn sweep_engines_match_the_element_oracle_around_the_cached_rows() {
    // The sweep goes source column by source column and reads no row
    // structure; `tests/deps_equivalence.rs` is the full pin, this is the
    // same check on this file's subjects, before and after the factor has
    // cached the kernel's copy.
    for (name, pattern) in subjects() {
        let perm = order(&pattern, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&pattern.permute(&perm));
        let before = f.clone();
        for part in [
            Partition::build(&f, &PartitionParams::with_grain(4)),
            Partition::columns(&f),
        ] {
            let oracle = dependencies(&f, &part);
            for engine in [DepsEngine::Sweep, DepsEngine::SweepParallel] {
                assert_eq!(
                    build_dependencies(engine, &f, &part),
                    oracle,
                    "{name} {engine:?}"
                );
            }
            f.row_structure();
        }
        // Neither the fingerprint nor a clone taken earlier can tell that
        // the row structure now exists.
        assert_eq!(before.fingerprint(), f.fingerprint());
        assert!(std::ptr::eq(before.row_structure(), f.row_structure()));
    }
}

/// The numeric kernel against its oracle at benchmark size: lap9 200²
/// (n = 40,000) under MMD — `cholesky` against the oracle,
/// `cholesky_block_parallel` at P = 2 against `cholesky`, and the relative
/// residual of a solve through `residual_norm`. Minutes unoptimized; run
/// it with `cargo test --release -q -p spfactor --test
/// numeric_kernel_bits at_side_200 -- --ignored`.
#[test]
#[ignore = "n = 40,000: run in release with --ignored"]
fn kernel_matches_the_oracle_at_side_200() {
    let p = gen::lap9(200, 200);
    let perm = order(&p, Ordering::paper_default());
    let a = gen::spd_from_pattern(&p.permute(&perm), 17);
    let f = SymbolicFactor::from_pattern(&a.pattern());
    f.row_structure();
    let t = Instant::now();
    let got = cholesky(&a, &f).expect("SPD");
    let kernel = t.elapsed();
    let t = Instant::now();
    let want = oracle_cholesky(&a, &f).expect("SPD");
    let oracle = t.elapsed();
    assert!(got == want, "lap9 200²: cholesky differs from the oracle");

    let part = Partition::build(&f, &PartitionParams::with_grain(25));
    let deps = build_dependencies(DepsEngine::Sweep, &f, &part);
    let assign = sched::block_allocation(&part, &deps, 2);
    let t = Instant::now();
    let block = cholesky_block_parallel(&a, &f, &part, &deps, &assign).expect("SPD");
    let parallel = t.elapsed();
    assert!(block == got, "lap9 200²: block-parallel P = 2 differs");

    let b = &rhs_set(a.n(), 1)[0];
    let mut x = b.clone();
    lower_solve(&got, &mut x);
    upper_solve(&got, &mut x);
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let r = residual_norm(&a, &x, b) / scale;
    assert!(r <= 1e-10, "lap9 200²: relative residual {r:e}");
    println!(
        "lap9 200² (n = {}, {} entries): cholesky {kernel:.2?}, oracle {oracle:.2?}, \
         block-parallel P = 2 {parallel:.2?}, relative residual {r:.3e}",
        a.n(),
        f.num_entries()
    );
}

fn arb_pattern() -> impl Strategy<Value = SymmetricPattern> {
    (5usize..120, 2.0f64..10.0, any::<u64>()).prop_map(|(n, deg, seed)| {
        let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
        gen::random_geometric(n, r, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_kernel_and_solves_match_oracle(
        pattern in arb_pattern(),
        which in 0usize..4,
        seed in any::<u64>(),
        count in 0usize..20,
    ) {
        let method = ORDERINGS[which];
        let perm = order(&pattern, method);
        let pa = gen::spd_from_pattern(&pattern, seed).permute(&perm);
        let f = SymbolicFactor::from_pattern(&pa.pattern());
        let want = oracle_cholesky(&pa, &f).expect("SPD");
        let got = cholesky(&pa, &f).expect("SPD");
        prop_assert_eq!(&got, &want);
        let rhs = rhs_set(pa.n(), count);
        prop_assert_eq!(solve_many(&got, &rhs), oracle_solve_many(&want, &rhs));
        prop_assert_eq!(
            solve_many_permuted(&got, &perm, &rhs),
            oracle_solve_many_permuted(&want, &perm, &rhs)
        );
    }
}
