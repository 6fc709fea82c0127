//! Pinned equivalence: every dependency-analysis engine must return
//! bit-identical graphs on every paper matrix.
//!
//! The element engine is the oracle — it replays each update and scaling
//! operation and classifies it one at a time. The sweep derives the same
//! graph in closed form from per-column ownership segmentations and lays
//! it out cluster by cluster, so any divergence here means the segment
//! algebra mislabels an operation or a cluster's lists were laid out
//! before they were final. Equality is full [`spfactor::DepGraph`]
//! equality: predecessor *sets* plus the exact operation count in each of
//! the paper's ten categories (the successors are derived from the
//! predecessors).

use proptest::prelude::*;
use spfactor::partition::{build_dependencies, dependencies};
use spfactor::{DepsEngine, Pipeline, PipelineResult, Scheme};

fn assert_engines_agree(result: &PipelineResult, name: &str) {
    let oracle = dependencies(result.plan.factor(), result.plan.partition());
    assert_eq!(
        &oracle,
        result.plan.deps(),
        "{name}: pipeline deps diverge from oracle"
    );
    for engine in [DepsEngine::Sweep, DepsEngine::SweepParallel] {
        let got = build_dependencies(engine, result.plan.factor(), result.plan.partition());
        assert_eq!(got, oracle, "{name}: {engine:?} diverges from element");
    }
}

#[test]
fn deps_engines_identical_on_all_paper_matrices() {
    for m in spfactor::matrix::gen::paper::all() {
        for grain in [4usize, 25] {
            let r = Pipeline::new(m.pattern.clone()).grain(grain).run();
            assert_engines_agree(&r, &format!("{} g={grain}", m.name));
        }
    }
}

#[test]
fn deps_engines_identical_on_wrap_scheme() {
    for m in spfactor::matrix::gen::paper::all() {
        let r = Pipeline::new(m.pattern.clone()).scheme(Scheme::Wrap).run();
        assert_engines_agree(&r, &format!("{} wrap", m.name));
    }
}

#[test]
fn deps_engines_identical_with_relaxed_clusters() {
    // Zero relaxation widens strips (explicit zeros inside triangles),
    // stressing segments whose rows are not all stored entries.
    let m = spfactor::matrix::gen::paper::lap30();
    let mut params = spfactor::PartitionParams::with_grain(4);
    params.relax_zeros = 2;
    params.min_cluster_width = 2;
    let r = Pipeline::new(m.pattern).params(params).run();
    assert_engines_agree(&r, "lap30 relaxed");
}

#[test]
fn deps_engines_identical_on_scaled_grid() {
    let grid = spfactor::matrix::gen::paper::lap_grid(24);
    let r = Pipeline::new(grid.pattern).grain(25).run();
    assert_engines_agree(&r, grid.name);
}

#[test]
fn deps_engines_identical_on_the_benchmark_subject() {
    // `plan_grid` of the repository benchmark: lap9 70 x 70 at grain 25,
    // P = 16, under the engines it runs — and the wrap partition of the
    // same factor. Wide strips, deep below-rectangles, and (wrap) nothing
    // but single-column clusters.
    let grid = spfactor::matrix::gen::lap9(70, 70);
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let r = Pipeline::new(grid.clone())
            .grain(25)
            .scheme(scheme)
            .processors(16)
            .order_engine(spfactor::OrderEngine::Compressed)
            .deps_engine(DepsEngine::SweepParallel)
            .run();
        let oracle = dependencies(r.plan.factor(), r.plan.partition());
        assert_eq!(&oracle, r.plan.deps(), "{scheme:?}: pipeline deps diverge");
        let got = build_dependencies(DepsEngine::Sweep, r.plan.factor(), r.plan.partition());
        assert_eq!(got, oracle, "{scheme:?}: Sweep diverges");
    }
}

#[test]
#[ignore = "the element oracle needs seconds at n = 10,000: run in release"]
fn deps_sweep_matches_the_oracle_at_side_100() {
    // lap9 100² at grain 25: five times the largest tier-1 subject's
    // columns, block and wrap. The sweep under the pipeline's engine
    // against the element replay of the same factor and partition.
    let grid = spfactor::matrix::gen::lap9(100, 100);
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let plan = Pipeline::new(grid.clone())
            .grain(25)
            .scheme(scheme)
            .processors(16)
            .deps_engine(DepsEngine::Sweep)
            .plan();
        let oracle = dependencies(plan.factor(), plan.partition());
        assert_eq!(
            &oracle,
            plan.deps(),
            "{scheme:?}: sweep diverges at side 100"
        );
    }
}

/// Random connected-ish symmetric pattern: a random geometric graph of
/// `n` points with mean degree `deg` (the strategy of
/// `tests/property_pipeline.rs`).
fn arb_pattern() -> impl Strategy<Value = spfactor::SymmetricPattern> {
    (5usize..100, 2.0f64..8.0, any::<u64>()).prop_map(|(n, deg, seed)| {
        let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
        spfactor::matrix::gen::random_geometric(n, r, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_deps_engines_agree(
        pattern in arb_pattern(),
        grain in 1usize..30,
        width in 1usize..8,
        relax in 0usize..3,
        nprocs in 1usize..17,
    ) {
        let mut params = spfactor::PartitionParams::with_grain(grain);
        params.min_cluster_width = width;
        params.relax_zeros = relax;
        let r = Pipeline::new(pattern).params(params).processors(nprocs).run();
        let oracle = dependencies(r.plan.factor(), r.plan.partition());
        prop_assert_eq!(
            &oracle,
            r.plan.deps(),
            "pipeline default diverges from oracle"
        );
        let swept = build_dependencies(DepsEngine::Sweep, r.plan.factor(), r.plan.partition());
        prop_assert_eq!(&swept, &oracle, "sweep diverges");
    }
}
