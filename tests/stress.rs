//! Larger-scale stress tests, `#[ignore]`d by default (run with
//! `cargo test --release -- --ignored`). These push the pipeline well
//! past the paper's problem sizes to catch scaling bugs (quadratic blow-
//! ups, stack overflows, allocation storms) that the small suites miss.

use spfactor::{Pipeline, Scheme};

#[test]
#[ignore = "large; run with --ignored in release mode"]
fn pipeline_on_60x60_nine_point_grid() {
    // 3600 unknowns, ~4x the paper's largest problem.
    let p = spfactor::matrix::gen::lap9(60, 60);
    let r = Pipeline::new(p.clone()).grain(25).processors(32).run();
    assert_eq!(r.plan.factor().n(), 3600);
    let w = Pipeline::new(p).scheme(Scheme::Wrap).processors(32).run();
    assert!(r.traffic.total < w.traffic.total);
    assert!(w.work.imbalance() <= r.work.imbalance() + 1e-9);
}

#[test]
#[ignore = "large; run with --ignored in release mode"]
fn pipeline_on_3d_grid() {
    // 3-D problems produce much wider supernodes; 12^3 = 1728 unknowns.
    // The denser factor needs a correspondingly larger grain before
    // blocking pays off ("the cluster width has to go in step with the
    // grain size" generalizes to the grain itself).
    let p = spfactor::matrix::gen::grid7(12, 12, 12);
    let r = Pipeline::new(p.clone()).grain(100).processors(16).run();
    let w = Pipeline::new(p).scheme(Scheme::Wrap).processors(16).run();
    assert!(
        (r.traffic.total as f64) < 0.8 * w.traffic.total as f64,
        "block {} vs wrap {}",
        r.traffic.total,
        w.traffic.total
    );
}

#[test]
#[ignore = "large; run with --ignored in release mode"]
fn numeric_solve_at_scale() {
    use spfactor::numeric::{solve, SpdSolver};
    let p = spfactor::matrix::gen::lap9(50, 50);
    let a = spfactor::matrix::gen::spd_from_pattern(&p, 1);
    let b: Vec<f64> = (0..a.n()).map(|i| ((i % 23) as f64) - 11.0).collect();
    let s = SpdSolver::new(&a, spfactor::Ordering::paper_default()).unwrap();
    let x = s.solve(&b);
    let bn = b.iter().map(|v| v.abs()).fold(1.0, f64::max);
    assert!(solve::residual_norm(&a, &x, &b) / bn < 1e-9);
}

#[test]
#[ignore = "large; run with --ignored in release mode"]
fn block_schedule_executes_at_scale() {
    let p = spfactor::matrix::gen::lap9(40, 40);
    let r = Pipeline::new(p.clone()).grain(25).processors(16).run();
    let a = spfactor::matrix::gen::spd_from_pattern(&p.permute(r.plan.permutation()), 2);
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

/// The engines agree at 40,000 columns: `OrderEngine::Direct` returns the
/// `mmd` oracle's permutation, `Compressed` stays within 5 % of its factor
/// entries, and the three deps engines' graphs and the three simulate
/// engines' traffic and work reports are equal, on lap9 200² and CANN1072
/// at grain 25, P = 16 (block scheme).
#[test]
#[ignore = "large; run with --ignored in release mode"]
fn engines_agree_on_lap200_and_cann1072() {
    use spfactor::matrix::gen::paper;
    use spfactor::order::{mmd::multiple_minimum_degree, order_with_engine};
    use spfactor::partition::{build_dependencies, DepsEngine};
    use spfactor::simulate::{simulate, SimulateEngine};
    use spfactor::{OrderEngine, Ordering, Partition, PartitionParams, SymbolicFactor};

    for m in [paper::lap_grid(200), paper::cann1072()] {
        let name = m.name;
        let factor_of = |engine| {
            let perm = order_with_engine(&m.pattern, Ordering::paper_default(), engine);
            (
                SymbolicFactor::from_pattern(&m.pattern.permute(&perm)),
                perm,
            )
        };
        let (factor, perm) = factor_of(OrderEngine::Direct);
        assert_eq!(
            perm,
            multiple_minimum_degree(&m.pattern, 0),
            "{name}: Direct"
        );
        let (direct, compressed) = (factor.num_entries(), factor_of(OrderEngine::Compressed).0);
        let delta = compressed.num_entries().abs_diff(direct) as f64 / direct as f64;
        assert!(delta <= 0.05, "{name}: Compressed is {delta:.3} off Direct");

        let partition = Partition::build(&factor, &PartitionParams::with_grain(25));
        let [element, sweep, sweep_parallel] = [
            DepsEngine::Element,
            DepsEngine::Sweep,
            DepsEngine::SweepParallel,
        ]
        .map(|e| build_dependencies(e, &factor, &partition));
        assert!(element == sweep && sweep == sweep_parallel, "{name}: deps");

        let assignment = spfactor::sched::block_allocation(&partition, &element, 16);
        let [element, block, block_parallel] = [
            SimulateEngine::Element,
            SimulateEngine::Block,
            SimulateEngine::BlockParallel,
        ]
        .map(|e| simulate(e, &factor, &partition, &assignment));
        assert!(
            element == block && block == block_parallel,
            "{name}: simulate"
        );
    }
}
