//! Property-based tests over randomly generated sparse structures: the
//! pipeline's conservation laws and geometric invariants must hold for
//! *any* symmetric pattern, not just the paper's test set.

use proptest::prelude::*;
use spfactor::{Pipeline, Scheme, SimulateEngine};

/// Random connected-ish symmetric pattern: a random geometric graph of
/// `n` points with mean degree `deg`.
fn arb_pattern() -> impl Strategy<Value = spfactor::SymmetricPattern> {
    (5usize..120, 2.0f64..8.0, any::<u64>()).prop_map(|(n, deg, seed)| {
        let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
        spfactor::matrix::gen::random_geometric(n, r, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_block_pipeline_invariants(
        pattern in arb_pattern(),
        grain in 1usize..40,
        width in 1usize..10,
        nprocs in 1usize..12,
    ) {
        let r = Pipeline::new(pattern)
            .grain(grain)
            .min_cluster_width(width)
            .processors(nprocs)
            .run();
        // Ownership covers every factor entry exactly once.
        let owned: usize = r.plan.partition().units.iter().map(|u| u.elements).sum();
        prop_assert_eq!(owned, r.plan.factor().num_entries());
        // Work conservation.
        prop_assert_eq!(r.work.total, r.plan.factor().paper_work());
        prop_assert_eq!(r.work.per_proc.iter().sum::<usize>(), r.work.total);
        // Traffic per-processor sums to the total; zero on one processor.
        prop_assert_eq!(r.traffic.per_proc.iter().sum::<usize>(), r.traffic.total);
        if nprocs == 1 {
            prop_assert_eq!(r.traffic.total, 0);
        }
        // Every unit has a valid processor.
        prop_assert!(r.plan.assignment().proc_of_unit.iter().all(|&p| (p as usize) < nprocs));
        // Δ and efficiency are consistent.
        let e = r.work.efficiency();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&e));
        if r.work.total > 0 {
            prop_assert!((e * (1.0 + r.work.imbalance()) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_wrap_and_block_work_totals_agree(
        pattern in arb_pattern(),
        nprocs in 1usize..10,
    ) {
        let b = Pipeline::new(pattern.clone()).processors(nprocs).run();
        let w = Pipeline::new(pattern).scheme(Scheme::Wrap).processors(nprocs).run();
        prop_assert_eq!(b.work.total, w.work.total);
    }

    #[test]
    fn prop_simulate_engines_agree(
        pattern in arb_pattern(),
        grain in 1usize..30,
        nprocs in 1usize..17,
        wrap in any::<bool>(),
    ) {
        // The block closed-form engine (under both its names) must reproduce the element
        // oracle bit for bit on arbitrary SPD structures, under both
        // mapping schemes and arbitrary grains.
        let scheme = if wrap { Scheme::Wrap } else { Scheme::Block };
        let base = Pipeline::new(pattern.clone())
            .scheme(scheme)
            .grain(grain)
            .processors(nprocs)
            .run();
        for engine in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
            let r = Pipeline::new(pattern.clone())
                .scheme(scheme)
                .grain(grain)
                .processors(nprocs)
                .engine(engine)
                .run();
            prop_assert_eq!(&r.traffic, &base.traffic, "{:?} traffic", engine);
            prop_assert_eq!(&r.work, &base.work, "{:?} work", engine);
        }
    }

    #[test]
    fn prop_unit_dag_is_acyclic(pattern in arb_pattern(), grain in 1usize..30) {
        let r = Pipeline::new(pattern).grain(grain).run();
        let n = r.plan.partition().num_units();
        let mut indeg: Vec<usize> = (0..n).map(|u| r.plan.deps().preds(u).len()).collect();
        let mut queue: Vec<usize> = (0..n).filter(|&u| indeg[u] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &s in r.plan.deps().succs(u) {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    queue.push(s as usize);
                }
            }
        }
        prop_assert_eq!(seen, n);
    }

    #[test]
    fn prop_numeric_solve_residual(
        pattern in arb_pattern(),
        seed in any::<u64>(),
    ) {
        use spfactor::numeric::{solve, SpdSolver};
        let a = spfactor::matrix::gen::spd_from_pattern(&pattern, seed);
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| ((i % 11) as f64) - 5.0).collect();
        let s = SpdSolver::new(&a, spfactor::Ordering::paper_default()).unwrap();
        let x = s.solve(&b);
        let bn = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
        prop_assert!(solve::residual_norm(&a, &x, &b) / bn < 1e-8);
    }

    #[test]
    fn prop_supernodal_matches_simplicial(
        pattern in arb_pattern(),
        seed in any::<u64>(),
        relax in 0usize..3,
    ) {
        use spfactor::numeric::{cholesky, cholesky_supernodal};
        let perm = spfactor::order::order(&pattern, spfactor::Ordering::paper_default());
        let a = spfactor::matrix::gen::spd_from_pattern(&pattern.permute(&perm), seed);
        let f = spfactor::SymbolicFactor::from_pattern(&a.pattern());
        let seq = cholesky(&a, &f).unwrap();
        let blocked = cholesky_supernodal(&a, &f, relax).unwrap();
        for j in 0..f.n() {
            prop_assert!((seq.diag(j) - blocked.diag(j)).abs() < 1e-9 * seq.diag(j).abs());
            for (x, y) in seq.col_vals(j).iter().zip(blocked.col_vals(j)) {
                prop_assert!((x - y).abs() < 1e-9 * (1.0 + x.abs()));
            }
        }
    }

    #[test]
    fn prop_factor_contains_matrix_structure(pattern in arb_pattern()) {
        let r = Pipeline::new(pattern.clone()).processors(2).run();
        // The permuted A must be contained in L's structure.
        let pa = pattern.permute(r.plan.permutation());
        for (i, j) in pa.iter_entries() {
            prop_assert!(r.plan.factor().contains(i, j), "A entry ({i},{j}) missing");
        }
    }
}
