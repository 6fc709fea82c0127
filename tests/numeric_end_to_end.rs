//! End-to-end numerical validation on the paper's test set: SPD systems
//! with the five matrices' structures are factored (sequentially and in
//! parallel) and solved, closing the loop from structure to numbers.

use spfactor::matrix::gen;
use spfactor::numeric::{cholesky_block_parallel, solve, SpdSolver};
use spfactor::{Ordering, Partition, SymbolicFactor};

#[test]
fn solve_all_paper_matrices() {
    for m in gen::paper::all() {
        let a = gen::spd_from_pattern(&m.pattern, 7);
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64 - 8.0) / 8.0).collect();
        let b = a.mul_vec(&x_true);
        let s = SpdSolver::new(&a, Ordering::paper_default())
            .unwrap_or_else(|e| panic!("{}: {e}", m.name));
        let x = s.solve(&b);
        let r = solve::residual_norm(&a, &x, &b);
        let bn = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
        assert!(
            r / bn < 1e-10,
            "{}: relative residual {} too large",
            m.name,
            r / bn
        );
    }
}

#[test]
fn parallel_factorization_matches_sequential_on_paper_set() {
    // The schedule executor on `Partition::columns` drives the
    // column-level dependency DAG — the one the paper's block DAG refines
    // — on eight threads, and must agree bit-for-bit with the sequential
    // left-looking code.
    for m in [gen::paper::dwt512(), gen::paper::lap30()] {
        let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
        let a = gen::spd_from_pattern(&m.pattern.permute(&perm), 3);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let seq = spfactor::numeric::cholesky(&a, &f).unwrap();
        let part = Partition::columns(&f);
        let deps = spfactor::partition::dependencies(&f, &part);
        let assign = spfactor::sched::wrap_allocation(&part, 8);
        let par = cholesky_block_parallel(&a, &f, &part, &deps, &assign).unwrap();
        assert_eq!(seq, par, "{}", m.name);
    }
}

#[test]
fn unit_block_dag_is_consistent_with_column_dag() {
    // If unit U (owning elements of column set C_U) depends on unit V,
    // then some column of C_U depends on a column of C_V in the column
    // DAG or shares data with it — concretely: the unit DAG must order
    // every cross-unit update correctly. We verify by checking that a
    // topological order of the unit DAG induces a valid element
    // computation order: for every update op, both sources' units come
    // no later than the target's unit in the topological order (or equal).
    let m = gen::paper::dwt512();
    let r = spfactor::Pipeline::new(m.pattern.clone()).grain(4).run();
    let n = r.plan.partition().num_units();
    // Topological ranks via Kahn.
    let mut indeg: Vec<usize> = (0..n).map(|u| r.plan.deps().preds(u).len()).collect();
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
    let mut rank = vec![usize::MAX; n];
    let mut next = 0;
    while let Some(u) = queue.pop_front() {
        rank[u] = next;
        next += 1;
        for &s in r.plan.deps().succs(u) {
            indeg[s as usize] -= 1;
            if indeg[s as usize] == 0 {
                queue.push_back(s as usize);
            }
        }
    }
    assert_eq!(next, n, "unit DAG must be acyclic");
    let owner = r.plan.partition().ownership(r.plan.factor());
    let eid = |i: usize, j: usize| r.plan.factor().entry_id(i, j).unwrap();
    spfactor::symbolic::ops::for_each_update(r.plan.factor(), |op| {
        let t = owner[eid(op.i, op.j)] as usize;
        for s in [
            owner[eid(op.i, op.k)] as usize,
            owner[eid(op.j, op.k)] as usize,
        ] {
            if s != t {
                assert!(
                    rank[s] < rank[t],
                    "unit {s} must precede unit {t} (op {op:?})"
                );
            }
        }
    });
}

#[test]
fn paper_schedule_executes_numerically_on_lap30() {
    // The strongest end-to-end check in the repository: build the paper's
    // partition, dependency graph, and block allocation for LAP30 at
    // P = 16 and execute that schedule numerically on 16 threads. Any
    // missing dependency edge would surface as a bitwise mismatch
    // against the sequential factorization.
    let m = gen::paper::lap30();
    let r = spfactor::Pipeline::new(m.pattern.clone())
        .grain(4)
        .processors(16)
        .run();
    let a = gen::spd_from_pattern(&m.pattern.permute(r.plan.permutation()), 99);
    let seq = spfactor::numeric::cholesky(&a, r.plan.factor()).unwrap();
    let par = spfactor::numeric::cholesky_block_parallel(
        &a,
        r.plan.factor(),
        r.plan.partition(),
        r.plan.deps(),
        r.plan.assignment(),
    )
    .unwrap();
    assert_eq!(seq, par);
}

#[test]
fn timed_simulation_runs_on_real_factorization_schedule() {
    // Smoke-test the machine model against a real matrix at several
    // processor counts: speedup must be monotone-ish and bounded by P.
    let m = gen::paper::dwt512();
    let r4 = spfactor::Pipeline::new(m.pattern.clone())
        .grain(4)
        .processors(4)
        .run();
    let model = spfactor::NetworkModel {
        latency: 1.0,
        per_element: 0.1,
        per_work: 1.0,
    };
    let t = spfactor::simulate::timed::simulate_timed(
        r4.plan.factor(),
        r4.plan.partition(),
        r4.plan.deps(),
        r4.plan.assignment(),
        &model,
        spfactor::simulate::timed::OrderPolicy::ScanOrder,
        None,
    );
    assert!(t.speedup > 1.0, "no speedup on 4 procs: {}", t.speedup);
    assert!(t.speedup <= 4.0 + 1e-9);
}
